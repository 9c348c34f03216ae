package feed

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/sim"
)

func TestWriteReadRoundTrip(t *testing.T) {
	s, err := sim.New(sim.Config{Vessels: 2, Days: 4, Seed: 5}, ports.Default())
	if err != nil {
		t.Fatal(err)
	}
	var want []model.PositionRecord
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, v := range s.Fleet().Vessels {
		if err := w.WriteStatic(v, s.Config().Start.Unix()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		recs, _ := s.VesselTrack(i)
		for _, r := range recs {
			if err := w.WritePosition(r); err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Lines == 0 {
		t.Fatal("no lines written")
	}

	r := NewReader(&buf)
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, wrote %d", len(got), len(want))
	}
	for i := range got {
		g, x := got[i], want[i]
		if g.MMSI != x.MMSI || g.Time != x.Time || g.Status != x.Status {
			t.Fatalf("record %d identity mismatch: %+v vs %+v", i, g, x)
		}
		if math.Abs(g.Pos.Lat-x.Pos.Lat) > 1e-5 || math.Abs(g.Pos.Lng-x.Pos.Lng) > 1e-5 {
			t.Fatalf("record %d position drift", i)
		}
		if math.Abs(g.SOG-x.SOG) > 0.051 {
			t.Fatalf("record %d SOG drift: %v vs %v", i, g.SOG, x.SOG)
		}
	}
	st := r.Stats()
	if st.Positions != int64(len(want)) {
		t.Errorf("positions %d, want %d", st.Positions, len(want))
	}
	if st.Statics != 2 {
		t.Errorf("statics %d, want 2", st.Statics)
	}
	if st.BadNMEA != 0 || st.BadLines != 0 {
		t.Errorf("unexpected ingest errors: %+v", st)
	}
	// Static inventory reconstruction.
	info := r.StaticsAsVesselInfo()
	if len(info) != 2 {
		t.Fatalf("static inventory size %d", len(info))
	}
	for mmsi, v := range info {
		if v.MMSI != mmsi || v.Name == "" || !v.ClassA {
			t.Errorf("bad reconstructed info: %+v", v)
		}
		if v.Type == model.VesselUnknown {
			t.Errorf("vessel %d type not recovered", mmsi)
		}
	}
}

func TestReaderSkipsGarbage(t *testing.T) {
	input := strings.Join([]string{
		"not a line at all",
		"12345",                             // no tab
		"abc\t!AIVDM,1,1,,A,xx,0*00",        // bad timestamp
		"1641038400\t!AIVDM,1,1,,A,xx,0*00", // bad checksum
		"1641038400\tgarbage sentence",
	}, "\n")
	r := NewReader(strings.NewReader(input))
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("garbage produced %d records", len(recs))
	}
	st := r.Stats()
	if st.Lines != 5 {
		t.Errorf("lines %d, want 5", st.Lines)
	}
	if st.BadLines != 3 {
		t.Errorf("bad lines %d, want 3", st.BadLines)
	}
	if st.BadNMEA != 2 {
		t.Errorf("bad NMEA %d, want 2", st.BadNMEA)
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.NextItem(); err != io.EOF {
		t.Errorf("empty input: got %v, want EOF", err)
	}
}

func TestStaticsUnknownCategory(t *testing.T) {
	// A non-commercial ship type maps to VesselUnknown, which the pipeline
	// then filters out.
	s, _ := sim.New(sim.Config{Vessels: 1, Days: 2, Seed: 9}, ports.Default())
	v := s.Fleet().Vessels[0]
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteStatic(v, 0); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r := NewReader(&buf)
	for {
		it, err := r.NextItem()
		if err == io.EOF {
			break
		}
		if err != nil || it.Kind == ItemPosition {
			t.Fatal("static-only stream must EOF without records")
		}
	}
	info := r.StaticsAsVesselInfo()
	if len(info) != 1 {
		t.Fatal("static not collected")
	}
	for _, vi := range info {
		if vi.GRT <= 0 {
			t.Error("GRT estimate must be positive")
		}
	}
}
