package cluster

import (
	"bytes"
	"compress/flate"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"github.com/patternsoflife/pol/internal/ais"
	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/model"
)

// The shuffle frame codec as it stood before the record rows — gob by
// reflection, a fresh flate writer and an io.ReadAll inflate per frame —
// kept verbatim as the reference the payload codec is held to.

// refSealFrame compresses the payload and stamps the CRC.
func refSealFrame(f *peerFrame, records []model.PositionRecord, statics map[uint32]model.VesselInfo) error {
	var raw bytes.Buffer
	if err := gob.NewEncoder(&raw).Encode(&peerPayload{Records: records, Statics: statics}); err != nil {
		return fmt.Errorf("cluster: encode peer payload: %w", err)
	}
	f.Records = len(records)
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		return err
	}
	if _, err := fw.Write(raw.Bytes()); err != nil {
		return err
	}
	if err := fw.Close(); err != nil {
		return err
	}
	f.Payload = comp.Bytes()
	f.CRC = f.digest()
	return nil
}

// refOpenFrame verifies the CRC and decompresses the payload. A nil error
// means the frame is exactly what the sender sealed.
func refOpenFrame(f *peerFrame, maxBytes int) (*peerPayload, error) {
	if f.CRC != f.digest() {
		return nil, fmt.Errorf("cluster: peer frame task %d bucket %d seq %d: CRC mismatch", f.TaskID, f.Bucket, f.Seq)
	}
	fr := flate.NewReader(bytes.NewReader(f.Payload))
	defer fr.Close()
	lr := &io.LimitedReader{R: fr, N: int64(maxBytes) + 1}
	raw, err := io.ReadAll(lr)
	if err != nil {
		return nil, fmt.Errorf("cluster: peer frame inflate: %w", err)
	}
	if lr.N == 0 {
		return nil, fmt.Errorf("cluster: peer frame inflates past cap %d", maxBytes)
	}
	var p peerPayload
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&p); err != nil {
		return nil, fmt.Errorf("cluster: decode peer payload: %w", err)
	}
	if len(p.Records) != f.Records {
		return nil, fmt.Errorf("cluster: peer frame task %d bucket %d seq %d: %d records, header says %d",
			f.TaskID, f.Bucket, f.Seq, len(p.Records), f.Records)
	}
	return &p, nil
}

// samePayload compares two decoded payloads field for field, floats by
// their bits, and names the first difference.
func samePayload(a, b *peerPayload) string {
	bits := math.Float64bits
	if len(a.Records) != len(b.Records) || len(a.Statics) != len(b.Statics) {
		return fmt.Sprintf("%d records, %d statics against %d, %d", len(a.Records), len(a.Statics), len(b.Records), len(b.Statics))
	}
	for i, r := range a.Records {
		s := b.Records[i]
		if r.MMSI != s.MMSI || r.Time != s.Time || r.Status != s.Status || bits(r.Pos.Lat) != bits(s.Pos.Lat) ||
			bits(r.Pos.Lng) != bits(s.Pos.Lng) || bits(r.SOG) != bits(s.SOG) || bits(r.COG) != bits(s.COG) ||
			bits(r.Heading) != bits(s.Heading) {
			return fmt.Sprintf("record %d: %+v against %+v", i, r, s)
		}
	}
	for k, v := range a.Statics {
		w, ok := b.Statics[k]
		if !ok || v.MMSI != w.MMSI || v.IMO != w.IMO || v.Name != w.Name || v.CallSign != w.CallSign || v.Type != w.Type ||
			v.GRT != w.GRT || v.LengthM != w.LengthM || v.BeamM != w.BeamM || v.ClassA != w.ClassA ||
			bits(v.DesignSpeed) != bits(w.DesignSpeed) {
			return fmt.Sprintf("static %d: %+v against %+v (present %v)", k, v, w, ok)
		}
	}
	return ""
}

// edgeFloats are the float64s a codec most easily gets wrong: NaNs with
// different payloads and signs, both infinities, both zeros, the extremes.
var edgeFloats = []float64{
	math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000abc),
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64, -math.SmallestNonzeroFloat64, 51.95, -179.99,
}

// edgePayloads: every edge float in every float field, MMSI 0 and 2³²−1,
// the time and status extremes, statics with empty, non-ASCII and invalid
// UTF-8 names, a key that differs from its MMSI field; an empty payload,
// statics alone, and a full frame of random rows.
func edgePayloads() []*peerPayload {
	var recs []model.PositionRecord
	for i, v := range edgeFloats {
		w := edgeFloats[(i+3)%len(edgeFloats)]
		recs = append(recs,
			model.PositionRecord{MMSI: 0, Time: math.MinInt64, Pos: geo.LatLng{Lat: v, Lng: w}, SOG: v, COG: w, Heading: v, Status: 0},
			model.PositionRecord{MMSI: math.MaxUint32, Time: math.MaxInt64, Pos: geo.LatLng{Lat: w, Lng: v}, SOG: w, COG: v, Heading: w, Status: 255},
			model.PositionRecord{MMSI: uint32(i), Time: int64(-i), Pos: geo.LatLng{Lat: v, Lng: v}, SOG: v, COG: v, Heading: v, Status: ais.NavStatus(i)})
	}
	statics := map[uint32]model.VesselInfo{
		0:              {},
		math.MaxUint32: {MMSI: math.MaxUint32, IMO: math.MaxUint32, Name: "", CallSign: "", Type: 255, GRT: math.MinInt64, LengthM: math.MaxInt64, BeamM: -1, DesignSpeed: math.Copysign(0, -1), ClassA: true},
		227000001:      {MMSI: 227000001, IMO: 9000001, Name: "ÅLESUND ÆRØ 船", CallSign: "ÖÄ ", Type: model.VesselTanker, GRT: 60000, LengthM: 330, BeamM: 60, DesignSpeed: math.NaN(), ClassA: true},
		227000002:      {MMSI: 1, Name: "\xff\xfe bad utf-8", CallSign: "\x00", DesignSpeed: math.Inf(-1)},
	}
	rng := rand.New(rand.NewSource(28))
	full := make([]model.PositionRecord, peerBatchRecords)
	for i := range full {
		full[i] = model.PositionRecord{MMSI: rng.Uint32(), Time: rng.Int63() - rng.Int63(),
			Pos: geo.LatLng{Lat: math.Float64frombits(rng.Uint64()), Lng: rng.NormFloat64()},
			SOG: rng.Float64(), COG: math.Float64frombits(rng.Uint64()), Heading: rng.ExpFloat64(), Status: ais.NavStatus(rng.Intn(256))}
	}
	return []*peerPayload{
		{Records: recs, Statics: statics},
		{Records: recs},
		{Statics: statics},
		{},
		{Records: full, Statics: map[uint32]model.VesselInfo{7: {MMSI: 7, Name: "X"}}},
	}
}

// gobZeros is p as gob delivers it: gob omits a struct field equal to zero,
// and −0 == 0, so a −0 crosses the reference codec as +0.
func gobZeros(p *peerPayload) *peerPayload {
	z := func(v float64) float64 { // not v + 0, which would quiet a signalling NaN
		if v == 0 {
			return 0
		}
		return v
	}
	q := &peerPayload{Records: append([]model.PositionRecord(nil), p.Records...), Statics: map[uint32]model.VesselInfo{}}
	for i := range q.Records {
		r := &q.Records[i]
		r.Pos.Lat, r.Pos.Lng, r.SOG, r.COG, r.Heading = z(r.Pos.Lat), z(r.Pos.Lng), z(r.SOG), z(r.COG), z(r.Heading)
	}
	for k, v := range p.Statics {
		v.DesignSpeed = z(v.DesignSpeed)
		q.Statics[k] = v
	}
	return q
}

// TestPayloadMatchesReference: a frame sealed by the payload codec opens to
// its input bit for bit, and to exactly what the same records and statics
// open to through the reference gob codec, field for field and bit for
// bit — with one difference, by design: gob turns −0 into +0 (gobZeros),
// the record log keeps −0, as the records a local build reads do.
func TestPayloadMatchesReference(t *testing.T) {
	for i, p := range edgePayloads() {
		ref := &peerFrame{TaskID: 9, Section: 1, Bucket: 2, Seq: 3, Last: true, Frames: 4}
		if err := refSealFrame(ref, p.Records, p.Statics); err != nil {
			t.Fatal(err)
		}
		want, err := refOpenFrame(ref, maxFrameBytes)
		if err != nil {
			t.Fatal(err)
		}
		f := sealTestFrame(t, 9, 1, 2, 3, true, 4, p.Records, p.Statics)
		if f.Records != ref.Records {
			t.Fatalf("payload %d: header says %d records, reference %d", i, f.Records, ref.Records)
		}
		got, err := f.open()
		if err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
		if diff := samePayload(got, p); diff != "" {
			t.Fatalf("payload %d against its input: %s", i, diff)
		}
		if diff := samePayload(gobZeros(got), want); diff != "" {
			t.Fatalf("payload %d against the reference: %s", i, diff)
		}
		if (got.Records == nil) != (want.Records == nil) || (got.Statics == nil) != (want.Statics == nil) {
			t.Errorf("payload %d: nil-ness differs from the reference", i)
		}
		t.Logf("payload %d: %d records, %d B (reference %d B compressed)", i, f.Records, len(f.Payload), len(ref.Payload))
	}
}
