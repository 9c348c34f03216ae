package ais

import (
	"math"
	"testing"
	"time"
)

// The type-4 and type-24 encoders generate the decoders' test input: the
// program only decodes these types.

// encodeBaseStation encodes a type-4 base-station report.
func encodeBaseStation(r BaseStationReport) ([]string, error) {
	if !ValidMMSI(r.MMSI) {
		return nil, ErrInvalidFields
	}
	b := newBitBuf(168)
	b.setUint(0, 6, TypeBaseStation)
	b.setUint(8, 30, uint64(r.MMSI))
	t := r.Time.UTC()
	b.setUint(38, 14, uint64(t.Year()))
	b.setUint(52, 4, uint64(t.Month()))
	b.setUint(56, 5, uint64(t.Day()))
	b.setUint(61, 5, uint64(t.Hour()))
	b.setUint(66, 6, uint64(t.Minute()))
	b.setUint(72, 6, uint64(t.Second()))
	b.setInt(79, 28, coordRaw(r.Lon, 180, LonNotAvailable))
	b.setInt(107, 27, coordRaw(r.Lat, 90, LatNotAvailable))
	b.setUint(134, 4, 1) // EPFD: GPS
	return EncodeSentences(b, "A", 0), nil
}

// encodeStaticB encodes a type-24 part A or part B message.
func encodeStaticB(r StaticBReport) ([]string, error) {
	if !ValidMMSI(r.MMSI) {
		return nil, ErrInvalidFields
	}
	if r.Part != 0 && r.Part != 1 {
		return nil, ErrInvalidFields
	}
	if r.Part == 0 {
		b := newBitBuf(160)
		b.setUint(0, 6, TypeStaticB)
		b.setUint(8, 30, uint64(r.MMSI))
		b.setUint(38, 2, 0)
		b.setText(40, 20, r.Name)
		return EncodeSentences(b, "B", 0), nil
	}
	b := newBitBuf(168)
	b.setUint(0, 6, TypeStaticB)
	b.setUint(8, 30, uint64(r.MMSI))
	b.setUint(38, 2, 1)
	b.setUint(40, 8, uint64(r.ShipType))
	b.setText(48, 7, "") // vendor id, unused
	b.setText(90, 7, r.CallSign)
	b.setUint(132, 9, clampUint(r.DimBow, 511))
	b.setUint(141, 9, clampUint(r.DimStern, 511))
	b.setUint(150, 6, clampUint(r.DimPort, 63))
	b.setUint(156, 6, clampUint(r.DimStarb, 63))
	return EncodeSentences(b, "B", 0), nil
}

func TestBaseStationRoundTrip(t *testing.T) {
	orig := BaseStationReport{
		MMSI: 993669702,
		Time: time.Date(2022, 6, 15, 13, 45, 30, 0, time.UTC),
		Lon:  4.1418,
		Lat:  51.9512,
	}
	lines, err := encodeBaseStation(orig)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 {
		t.Fatalf("base station report must fit one sentence, got %d", len(lines))
	}
	m := decodeAll(t, lines)
	if m.Type != TypeBaseStation || m.BaseStation == nil {
		t.Fatalf("decoded %+v", m)
	}
	got := *m.BaseStation
	if got.MMSI != orig.MMSI {
		t.Errorf("MMSI %d", got.MMSI)
	}
	if !got.Time.Equal(orig.Time) {
		t.Errorf("time %v, want %v", got.Time, orig.Time)
	}
	if math.Abs(got.Lon-orig.Lon) > 1e-5 || math.Abs(got.Lat-orig.Lat) > 1e-5 {
		t.Errorf("position (%v,%v)", got.Lat, got.Lon)
	}
}

func TestBaseStationUnavailablePosition(t *testing.T) {
	lines, err := encodeBaseStation(BaseStationReport{
		MMSI: 993669702,
		Time: time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC),
		Lon:  math.NaN(), Lat: math.NaN(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := *decodeAll(t, lines).BaseStation
	if !math.IsNaN(got.Lon) || !math.IsNaN(got.Lat) {
		t.Error("unavailable position must decode to NaN")
	}
}

func TestBaseStationRejectsBadMMSI(t *testing.T) {
	if _, err := encodeBaseStation(BaseStationReport{MMSI: 7}); err != ErrInvalidFields {
		t.Errorf("got %v", err)
	}
}

func TestStaticBPartARoundTrip(t *testing.T) {
	orig := StaticBReport{MMSI: 338123456, Part: 0, Name: "SMALL FISHER"}
	lines, err := encodeStaticB(orig)
	if err != nil {
		t.Fatal(err)
	}
	m := decodeAll(t, lines)
	if m.Type != TypeStaticB || m.StaticB == nil {
		t.Fatalf("decoded %+v", m)
	}
	got := *m.StaticB
	if got.Part != 0 || got.Name != "SMALL FISHER" || got.MMSI != orig.MMSI {
		t.Errorf("part A: %+v", got)
	}
}

func TestStaticBPartBRoundTrip(t *testing.T) {
	orig := StaticBReport{
		MMSI: 338123456, Part: 1,
		ShipType: 37, CallSign: "WDL1234",
		DimBow: 12, DimStern: 4, DimPort: 2, DimStarb: 3,
	}
	lines, err := encodeStaticB(orig)
	if err != nil {
		t.Fatal(err)
	}
	got := *decodeAll(t, lines).StaticB
	if got.Part != 1 || got.ShipType != 37 || got.CallSign != "WDL1234" {
		t.Errorf("part B identity: %+v", got)
	}
	if got.DimBow != 12 || got.DimStern != 4 || got.DimPort != 2 || got.DimStarb != 3 {
		t.Errorf("part B dimensions: %+v", got)
	}
}

func TestStaticBRejectsBadInput(t *testing.T) {
	if _, err := encodeStaticB(StaticBReport{MMSI: 5, Part: 0}); err != ErrInvalidFields {
		t.Errorf("bad MMSI: %v", err)
	}
	if _, err := encodeStaticB(StaticBReport{MMSI: 338123456, Part: 2}); err != ErrInvalidFields {
		t.Errorf("bad part: %v", err)
	}
}
