package cluster

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"

	"github.com/patternsoflife/pol/internal/ais"
	"github.com/patternsoflife/pol/internal/deflate"
	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/model"
)

// The shuffle payload is the one record codec between scan and reduce:
// fixed-width little-endian rows written by append and read by a loop, no
// reflection. Layout, version 1:
//
//	version u8 | nrec u32 | nrec × row | nstat u32 | nstat × static
//	row:    mmsi u32 | time i64 | lat, lng, sog, cog, heading f64 bits | status u8
//	static: key, mmsi, imo u32 | name, callsign (u32 length + bytes) | type u8 |
//	        grt, length, beam i64 | designSpeed f64 bits | classA u8
//
// Statics are sorted by key (MMSI), so the same content always encodes to
// the same bytes, and the decoder refuses what the encoder would not write
// (unsorted keys, a classA byte above 1, trailing bytes): decode → encode
// is the identity on what it accepts. Deflate (BestSpeed) wraps a payload
// on the socket; frames that stay inside the worker are never encoded.
const (
	payloadVersion = 1
	rowBytes       = 4 + 8 + 5*8 + 1
	staticMinBytes = 3*4 + 2*4 + 1 + 4*8 + 1

	pooledBufCap = 1 << 20 // largest buffer the seal and open pools keep; a full frame is ~217 KB raw
)

// peerPayload is the content of one shuffle frame. Statics ride the
// shuffle rather than a coordinator broadcast: a vessel hashes to exactly
// one bucket, so merging per-bucket statics in ascending section order
// reconstructs exactly the entries a global last-wins merge would hand
// that bucket's reduce.
type peerPayload struct {
	Records []model.PositionRecord
	Statics map[uint32]model.VesselInfo
}

// appendPayload appends p's encoding to b.
func appendPayload(b []byte, p *peerPayload) []byte {
	le := binary.LittleEndian
	b = slices.Grow(b, 9+rowBytes*len(p.Records)+staticMinBytes*len(p.Statics))
	b = le.AppendUint32(append(b, payloadVersion), uint32(len(p.Records)))
	for i := range p.Records {
		r := &p.Records[i]
		b = le.AppendUint64(le.AppendUint32(b, r.MMSI), uint64(r.Time))
		for _, v := range [...]float64{r.Pos.Lat, r.Pos.Lng, r.SOG, r.COG, r.Heading} {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
		b = append(b, byte(r.Status))
	}
	b = le.AppendUint32(b, uint32(len(p.Statics)))
	for _, k := range slices.Sorted(maps.Keys(p.Statics)) {
		v := p.Statics[k]
		b = le.AppendUint32(le.AppendUint32(le.AppendUint32(b, k), v.MMSI), v.IMO)
		b = append(le.AppendUint32(b, uint32(len(v.Name))), v.Name...)
		b = append(le.AppendUint32(b, uint32(len(v.CallSign))), v.CallSign...)
		b = append(b, byte(v.Type))
		for _, n := range [...]uint64{uint64(v.GRT), uint64(v.LengthM), uint64(v.BeamM), math.Float64bits(v.DesignSpeed)} {
			b = le.AppendUint64(b, n)
		}
		classA := byte(0)
		if v.ClassA {
			classA = 1
		}
		b = append(b, classA)
	}
	return b
}

// payloadReader walks a payload front to back. A read past the end sets
// short and yields zeros, so the decoder checks once, at the end.
type payloadReader struct {
	b     []byte
	short bool
}

func (r *payloadReader) next(n uint64) []byte {
	if uint64(len(r.b)) < n {
		r.short, r.b = true, nil
		return make([]byte, 8)
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *payloadReader) u8() byte     { return r.next(1)[0] }
func (r *payloadReader) u32() uint32  { return binary.LittleEndian.Uint32(r.next(4)) }
func (r *payloadReader) u64() uint64  { return binary.LittleEndian.Uint64(r.next(8)) }
func (r *payloadReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *payloadReader) str() string  { return string(r.next(uint64(r.u32()))) }

// decodePayload decodes a payload appendPayload wrote, allocating no more
// than the input's length bounds.
func decodePayload(raw []byte) (*peerPayload, error) {
	r := payloadReader{b: raw}
	if v := r.u8(); v != payloadVersion && !r.short {
		return nil, fmt.Errorf("cluster: shuffle payload version %d; coordinator and workers must run the same build", v)
	}
	p := &peerPayload{}
	if n := r.u32(); uint64(n) > uint64(len(r.b)/rowBytes) {
		r.short = true
	} else if n > 0 {
		p.Records = make([]model.PositionRecord, n)
		for i := range p.Records {
			p.Records[i] = model.PositionRecord{MMSI: r.u32(), Time: int64(r.u64()),
				Pos: geo.LatLng{Lat: r.f64(), Lng: r.f64()}, SOG: r.f64(), COG: r.f64(), Heading: r.f64(),
				Status: ais.NavStatus(r.u8())}
		}
	}
	n := r.u32()
	if uint64(n) > uint64(len(r.b)/staticMinBytes) {
		r.short, n = true, 0
	}
	prev := int64(-1)
	for range n {
		k := r.u32()
		v := model.VesselInfo{MMSI: r.u32(), IMO: r.u32(), Name: r.str(), CallSign: r.str(),
			Type: model.VesselType(r.u8()), GRT: int(r.u64()), LengthM: int(r.u64()), BeamM: int(r.u64()),
			DesignSpeed: r.f64()}
		flag := r.u8()
		if r.short {
			break
		}
		if int64(k) <= prev || flag > 1 {
			return nil, fmt.Errorf("cluster: shuffle payload static %d: key out of order or bad flag", k)
		}
		if p.Statics == nil {
			p.Statics = make(map[uint32]model.VesselInfo, n)
		}
		prev, v.ClassA = int64(k), flag == 1
		p.Statics[k] = v
	}
	switch {
	case r.short:
		return nil, fmt.Errorf("cluster: shuffle payload truncated")
	case len(r.b) != 0:
		return nil, fmt.Errorf("cluster: shuffle payload: %d trailing bytes", len(r.b))
	}
	return p, nil
}

// sealer is the pooled state of seal; open pools only its raw buffer,
// since a BestSpeed flate writer is 1.2 MB and an open needs none.
type sealer struct {
	raw []byte
	out bytes.Buffer
	fw  *flate.Writer
}

var (
	sealers = sync.Pool{New: func() any {
		fw, _ := flate.NewWriter(nil, flate.BestSpeed) // a valid level: no error
		return &sealer{fw: fw}
	}}
	openBufs = sync.Pool{New: func() any { return new([]byte) }}
)

// seal encodes and compresses the frame's content and stamps the CRC, the
// first time the frame is about to cross a socket; it reports whether this
// call did it. Sealing drops the records, so a frame retained for a resend
// holds its compressed bytes only. Later calls — a reconnect replay, a
// resend to a bucket's new owner — and frames that arrived sealed find
// nothing to do.
func (f *peerFrame) seal() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.content == nil {
		return false
	}
	s := sealers.Get().(*sealer)
	s.raw = appendPayload(s.raw[:0], f.content)
	s.out.Reset()
	s.fw.Reset(&s.out)
	s.fw.Write(s.raw) // into a bytes.Buffer: cannot fail
	s.fw.Close()
	f.RawLen, f.Payload, f.content = len(s.raw), bytes.Clone(s.out.Bytes()), nil
	f.CRC = f.digest()
	if cap(s.raw) <= pooledBufCap && s.out.Cap() <= pooledBufCap {
		sealers.Put(s)
	}
	return true
}

// open verifies the CRC, inflates the payload into exactly RawLen bytes
// and decodes them. A nil error means the frame is exactly what the sender
// sealed.
func (f *peerFrame) open(maxBytes int) (*peerPayload, error) {
	if f.CRC != f.digest() {
		return nil, fmt.Errorf("cluster: peer frame task %d bucket %d seq %d: CRC mismatch", f.TaskID, f.Bucket, f.Seq)
	}
	if f.RawLen < 0 || f.RawLen > maxBytes || f.RawLen > deflate.MaxRatio*len(f.Payload) {
		return nil, fmt.Errorf("cluster: peer frame raw length %d out of bounds (cap %d, %d compressed bytes)", f.RawLen, maxBytes, len(f.Payload))
	}
	buf := openBufs.Get().(*[]byte)
	defer func() {
		if cap(*buf) <= pooledBufCap {
			openBufs.Put(buf)
		}
	}()
	*buf = slices.Grow((*buf)[:0], f.RawLen)[:f.RawLen]
	if err := deflate.Inflate(*buf, f.Payload); err != nil {
		return nil, fmt.Errorf("cluster: peer frame inflate (raw length %d): %w", f.RawLen, err)
	}
	p, err := decodePayload(*buf)
	if err == nil && len(p.Records) != f.Records {
		p, err = nil, fmt.Errorf("cluster: peer frame task %d bucket %d seq %d: %d records, header says %d",
			f.TaskID, f.Bucket, f.Seq, len(p.Records), f.Records)
	}
	return p, err
}
