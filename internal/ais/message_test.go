package ais

import (
	"math"
	"math/rand"
	"testing"
)

func decodeAll(t *testing.T, lines []string) Message {
	t.Helper()
	d := NewDecoder()
	for i, line := range lines {
		m, _, ok := feedLine(d, []byte(line))
		if ok {
			if i != len(lines)-1 {
				t.Fatalf("message completed early at line %d", i)
			}
			return m
		}
	}
	t.Fatalf("message did not complete; decoder counters %+v", d)
	return Message{}
}

func TestPositionEncodeDecodeRoundTrip(t *testing.T) {
	orig := PositionReport{
		Type:      TypePositionA1,
		MMSI:      227006560,
		Status:    StatusUnderWayEngine,
		Lon:       4.1418,
		Lat:       51.9512,
		SOG:       14.3,
		COG:       231.7,
		Heading:   232,
		Timestamp: 42,
	}
	lines, err := EncodePosition(orig)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 {
		t.Fatalf("position report must fit one sentence, got %d", len(lines))
	}
	m := decodeAll(t, lines)
	if m.Type != TypePositionA1 {
		t.Fatalf("decoded %+v", m)
	}
	p := m.Position
	if p.MMSI != orig.MMSI || p.Status != orig.Status || p.Timestamp != orig.Timestamp {
		t.Errorf("identity fields: %+v", p)
	}
	if math.Abs(p.Lon-orig.Lon) > 1e-4/6 {
		t.Errorf("lon %v, want %v (resolution 1/600000°)", p.Lon, orig.Lon)
	}
	if math.Abs(p.Lat-orig.Lat) > 1e-4/6 {
		t.Errorf("lat %v, want %v", p.Lat, orig.Lat)
	}
	if math.Abs(p.SOG-orig.SOG) > 0.05 {
		t.Errorf("SOG %v, want %v", p.SOG, orig.SOG)
	}
	if math.Abs(p.COG-orig.COG) > 0.05 {
		t.Errorf("COG %v, want %v", p.COG, orig.COG)
	}
	if p.Heading != orig.Heading {
		t.Errorf("heading %v, want %v", p.Heading, orig.Heading)
	}
}

func TestPositionRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		orig := PositionReport{
			Type:      TypePositionA1,
			MMSI:      uint32(100000000 + rng.Intn(899999999)),
			Status:    NavStatus(rng.Intn(16)),
			Lon:       rng.Float64()*360 - 180,
			Lat:       rng.Float64()*180 - 90,
			SOG:       rng.Float64() * 40,
			COG:       rng.Float64() * 359.9,
			Heading:   float64(rng.Intn(360)),
			Timestamp: rng.Intn(60),
		}
		lines, err := EncodePosition(orig)
		if err != nil {
			t.Fatal(err)
		}
		m := decodeAll(t, lines)
		p := m.Position
		if p.MMSI != orig.MMSI {
			t.Fatalf("MMSI %d, want %d", p.MMSI, orig.MMSI)
		}
		if math.Abs(p.Lon-orig.Lon) > 1e-6+1.0/600000 ||
			math.Abs(p.Lat-orig.Lat) > 1e-6+1.0/600000 {
			t.Fatalf("position (%v,%v), want (%v,%v)", p.Lat, p.Lon, orig.Lat, orig.Lon)
		}
		if math.Abs(p.SOG-orig.SOG) > 0.051 {
			t.Fatalf("SOG %v, want %v", p.SOG, orig.SOG)
		}
		if math.Abs(p.COG-orig.COG) > 0.051 {
			t.Fatalf("COG %v, want %v", p.COG, orig.COG)
		}
	}
}

func TestPositionClassB(t *testing.T) {
	orig := PositionReport{
		Type: TypePositionB,
		MMSI: 338123456,
		Lon:  -70.25, Lat: 42.35,
		SOG: 6.5, COG: 90.5, Heading: 91, Timestamp: 7,
	}
	lines, err := EncodePosition(orig)
	if err != nil {
		t.Fatal(err)
	}
	m := decodeAll(t, lines)
	if m.Type != TypePositionB {
		t.Fatalf("type %d", m.Type)
	}
	p := m.Position
	if p.Status != StatusNotDefined {
		t.Errorf("class B status must be not-defined, got %v", p.Status)
	}
	if math.Abs(p.Lat-orig.Lat) > 1e-5 || math.Abs(p.Lon-orig.Lon) > 1e-5 {
		t.Errorf("position (%v,%v)", p.Lat, p.Lon)
	}
}

func TestPositionNotAvailableSentinels(t *testing.T) {
	orig := PositionReport{
		Type: TypePositionA1,
		MMSI: 235000001,
		Lon:  math.NaN(), Lat: math.NaN(),
		SOG: math.NaN(), COG: math.NaN(), Heading: math.NaN(),
		Timestamp: 60,
	}
	lines, err := EncodePosition(orig)
	if err != nil {
		t.Fatal(err)
	}
	p := decodeAll(t, lines).Position
	if !math.IsNaN(p.Lon) || !math.IsNaN(p.Lat) || !math.IsNaN(p.SOG) ||
		!math.IsNaN(p.COG) || !math.IsNaN(p.Heading) {
		t.Errorf("sentinels must decode to NaN: %+v", p)
	}
	if p.Timestamp != TimestampNotAvail {
		t.Errorf("timestamp %d", p.Timestamp)
	}
}

func TestPositionSpeedSaturates(t *testing.T) {
	orig := PositionReport{Type: TypePositionA1, MMSI: 235000001, Lon: 0, Lat: 0, SOG: 250}
	lines, _ := EncodePosition(orig)
	p := decodeAll(t, lines).Position
	if p.SOG != 102.2 {
		t.Errorf("SOG must saturate at 102.2 knots, got %v", p.SOG)
	}
}

func TestPositionRejectsBadInput(t *testing.T) {
	if _, err := EncodePosition(PositionReport{Type: 4, MMSI: 235000001}); err != ErrWrongType {
		t.Errorf("type 4: %v", err)
	}
	if _, err := EncodePosition(PositionReport{Type: 1, MMSI: 12}); err != ErrInvalidFields {
		t.Errorf("bad MMSI: %v", err)
	}
}

func TestStaticEncodeDecodeRoundTrip(t *testing.T) {
	orig := StaticReport{
		MMSI:        249110000,
		IMO:         9811000,
		CallSign:    "9HA4870",
		Name:        "EVER GIVEN",
		ShipType:    71, // cargo, hazardous A
		DimBow:      200,
		DimStern:    199,
		DimPort:     20,
		DimStarb:    38,
		Draught:     14.5,
		Destination: "ROTTERDAM",
		ETAMonth:    3, ETADay: 23, ETAHour: 5, ETAMinute: 30,
	}
	lines, err := EncodeStatic(orig, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("type 5 must span 2 sentences, got %d", len(lines))
	}
	m := decodeAll(t, lines)
	if m.Type != TypeStatic || m.Static == nil {
		t.Fatalf("decoded %+v", m)
	}
	s := *m.Static
	if s.MMSI != orig.MMSI || s.IMO != orig.IMO {
		t.Errorf("identity: %+v", s)
	}
	if s.Name != orig.Name || s.CallSign != orig.CallSign || s.Destination != orig.Destination {
		t.Errorf("text fields: name %q callsign %q dest %q", s.Name, s.CallSign, s.Destination)
	}
	if s.ShipType != orig.ShipType {
		t.Errorf("ship type %v", s.ShipType)
	}
	if s.Length() != 399 || s.Beam() != 58 {
		t.Errorf("dimensions %dx%d, want 399x58", s.Length(), s.Beam())
	}
	if math.Abs(s.Draught-14.5) > 0.001 {
		t.Errorf("draught %v", s.Draught)
	}
	if s.ETAMonth != 3 || s.ETADay != 23 || s.ETAHour != 5 || s.ETAMinute != 30 {
		t.Errorf("ETA fields: %+v", s)
	}
}

func TestStaticDraughtUnavailable(t *testing.T) {
	lines, err := EncodeStatic(StaticReport{MMSI: 249110000, Draught: math.NaN()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := *decodeAll(t, lines).Static
	if !math.IsNaN(s.Draught) {
		t.Errorf("unavailable draught must be NaN, got %v", s.Draught)
	}
}

func TestStaticRejectsBadMMSI(t *testing.T) {
	if _, err := EncodeStatic(StaticReport{MMSI: 5}, 0); err != ErrInvalidFields {
		t.Errorf("got %v", err)
	}
}

// TestShipTypeClassification: the market segments the commercial fleet is
// read from (passenger 6x, cargo 7x, tanker 8x) are the first digit.
func TestShipTypeClassification(t *testing.T) {
	commercial := map[int]bool{ShipCategoryPassenger: true, ShipCategoryCargo: true, ShipCategoryTanker: true}
	for _, st := range []ShipType{60, 69, 70, 71, 79, 80, 89} {
		if !commercial[st.Category()] {
			t.Errorf("type %d must be commercial", st)
		}
	}
	for _, st := range []ShipType{0, 30, 31, 36, 37, 40, 50, 51, 52, 55, 90, 99} {
		if commercial[st.Category()] {
			t.Errorf("type %d must not be commercial", st)
		}
	}
	if ShipType(70).Category() != 7 {
		t.Error("category of 70 is 7")
	}
}

func TestNavStatusStrings(t *testing.T) {
	for s := NavStatus(0); s <= 15; s++ {
		if s.String() == "" {
			t.Errorf("status %d has empty label", s)
		}
		if !s.Valid() {
			t.Errorf("status %d must be valid", s)
		}
	}
	if NavStatus(16).Valid() {
		t.Error("status 16 must be invalid")
	}
}

func TestValidMMSI(t *testing.T) {
	if !ValidMMSI(227006560) || !ValidMMSI(100000000) || !ValidMMSI(999999999) {
		t.Error("legal MMSIs rejected")
	}
	if ValidMMSI(99999999) || ValidMMSI(1000000000) || ValidMMSI(0) {
		t.Error("illegal MMSIs accepted")
	}
}

func TestDecoderCounters(t *testing.T) {
	d := NewDecoder()
	lines, _ := EncodePosition(PositionReport{Type: 1, MMSI: 227006560, Lon: 1, Lat: 1})
	bad := 0
	for _, line := range []string{lines[0], "garbage",
		"!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*00", // bad checksum
	} {
		if _, parsed, _ := feedLine(d, []byte(line)); !parsed {
			bad++
		}
	}
	if d.Decoded != 1 || bad != 2 || d.BadPayload != 0 || d.Skipped != 0 {
		t.Errorf("counters: %+v, %d bad sentences", d, bad)
	}
}

func TestDecoderSkipsUnsupportedTypes(t *testing.T) {
	// Build a type-21 (aid to navigation) payload: type field 21, rest
	// zeros — a legal message class this system does not consume.
	b := newBitBuf(272)
	b.setUint(0, 6, 21)
	b.setUint(8, 30, 993669702)
	lines := EncodeSentences(b, "A", 0)
	d := NewDecoder()
	_, _, ok := feedLine(d, []byte(lines[0]))
	if ok {
		t.Error("type 21 must not decode")
	}
	if d.Skipped != 1 {
		t.Errorf("skipped counter %d, want 1", d.Skipped)
	}
}

func TestDecodePayloadDirect(t *testing.T) {
	lines, _ := EncodePosition(PositionReport{Type: 1, MMSI: 227006560, Lon: 1, Lat: 1})
	s, err := parse(lines[0])
	if err != nil {
		t.Fatal(err)
	}
	var d Decoder
	var m Message
	if !d.decodePayload(s.Payload, s.FillBits, &m) {
		t.Fatal("assembled payload must decode")
	}
	if m.Type != TypePositionA1 || m.Position.MMSI != 227006560 {
		t.Errorf("decoded %+v", m)
	}
	if ok := d.decodePayload([]byte("~~~"), 0, &m); ok || d.BadPayload != 1 {
		t.Errorf("bad payload must fail and be counted, BadPayload=%d", d.BadPayload)
	}
}

func BenchmarkEncodePosition(b *testing.B) {
	p := PositionReport{Type: 1, MMSI: 227006560, Lon: 4.14, Lat: 51.95, SOG: 12, COG: 180, Heading: 180}
	for i := 0; i < b.N; i++ {
		if _, err := EncodePosition(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePosition(b *testing.B) {
	lines, _ := EncodePosition(PositionReport{Type: 1, MMSI: 227006560, Lon: 4.14, Lat: 51.95, SOG: 12, COG: 180, Heading: 180})
	line := []byte(lines[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder()
		if _, _, ok := feedLine(d, line); !ok {
			b.Fatal("decode failed")
		}
	}
}
