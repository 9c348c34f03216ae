package feed

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/sim"
)

// fleetArchive is the benchmark's base fleet (24 vessels, 12 days, sim seed
// 1: 83 303 reports, 4.9 MB) written statics first, then each vessel's
// track — built once per test binary.
var fleetArchive = sync.OnceValue(func() []byte {
	s, err := sim.New(sim.Config{Vessels: 24, Days: 12, Seed: 1, ReportInterval: 180, NoiseRate: 0.02}, ports.Default())
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, v := range s.Fleet().Vessels {
		if err := w.WriteStatic(v, s.Config().Start.Unix()); err != nil {
			panic(err)
		}
	}
	for i := range s.Fleet().Vessels {
		recs, _ := s.VesselTrack(i)
		for _, r := range recs {
			if err := w.WritePosition(r); err != nil {
				panic(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// recordsDigest hashes every field of every record, floats by their bits
// (an unavailable heading is a NaN, which no == finds equal).
func recordsDigest(recs []model.PositionRecord) string {
	h := sha256.New()
	for _, r := range recs {
		for _, v := range []uint64{
			uint64(r.MMSI), uint64(r.Time), uint64(r.Status),
			math.Float64bits(r.Pos.Lat), math.Float64bits(r.Pos.Lng),
			math.Float64bits(r.SOG), math.Float64bits(r.COG), math.Float64bits(r.Heading),
		} {
			binary.Write(h, binary.BigEndian, v)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestArchiveEqualsParent pins the codec to what the bit-at-a-time one
// (the reference kept in internal/ais/reference_test.go) wrote and read for
// the same fleet: the archive bytes, every decoded record bit for bit, the
// statics and the ReadStats. The three digests were taken at commit 9a3e407
// by this test's own code.
func TestArchiveEqualsParent(t *testing.T) {
	archive := fleetArchive()
	if got, want := fmt.Sprintf("%x", sha256.Sum256(archive))[:16], "9962692bb420f5da"; got != want {
		t.Errorf("archive bytes digest %s, parent wrote %s", got, want)
	}
	r := NewReader(bytes.NewReader(archive))
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := recordsDigest(recs), "51cd5810c4fcd880"; got != want {
		t.Errorf("records digest %s, parent decoded %s", got, want)
	}
	if got, want := r.Stats(), (ReadStats{Lines: 83351, Positions: 83303, Statics: 24}); got != want {
		t.Errorf("stats %+v, parent %+v", got, want)
	}
	var names string
	for _, v := range r.StaticsAsVesselInfo() {
		names += v.Name
	}
	if len(r.statics) != 24 || len(names) == 0 {
		t.Errorf("%d statics, names %q", len(r.statics), names)
	}
}

// TestNextItemAllocatesNothing: line to record, a position costs no
// allocation — the scanner's bytes are parsed in place, un-armored into the
// decoder's buffer and returned by value.
func TestNextItemAllocatesNothing(t *testing.T) {
	archive := fleetArchive()
	r := NewReader(bytes.NewReader(archive))
	for r.Stats().Statics < 24 { // past the statics, which copy their fragments
		if _, err := r.NextItem(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5000, func() {
		if it, err := r.NextItem(); err != nil || it.Kind != ItemPosition {
			t.Fatalf("item %+v, error %v", it, err)
		}
	})
	if allocs != 0 {
		t.Errorf("%.2f allocations per position, want 0", allocs)
	}
}

// TestSectionReaderAllocatesNothingPerLine: the cluster scan's reader hands
// the same positions over at the same price — one line buffer reused, the
// two count fields read where they stand (two allocations a line before).
func TestSectionReaderAllocatesNothingPerLine(t *testing.T) {
	archive := fleetArchive()
	r, err := NewSectionReader(bytes.NewReader(archive), int64(len(archive)/3), int64(len(archive)))
	if err != nil {
		t.Fatal(err)
	}
	const lines = 1000
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < lines; i++ {
			if it, err := r.NextItem(); err != nil || it.Kind != ItemPosition {
				t.Fatalf("item %+v, error %v", it, err)
			}
		}
	})
	if perLine := allocs / lines; perLine > 0.01 {
		t.Errorf("%.3f allocations per line, want at most 0.01", perLine)
	}
}

// TestStaticSurvivesScannerRefill: NextItem parses Scanner.Bytes in place,
// and the scanner's next refill overwrites them. A static's first fragment
// must have been copied by then: wherever the 64 KiB refill falls across
// the two fragments, the static decodes whole.
func TestStaticSurvivesScannerRefill(t *testing.T) {
	static := staticLines(t, 227006560, "EVER GIVEN", 4, 1641038400)
	group := static[0] + "\n" + static[1] + "\n"
	filler := strings.Repeat(positionLine(t, 227006560, 1641038400)+"\n", 1<<16/50)
	filler = filler[:1<<16-len(group)-1]
	filler = filler[:strings.LastIndexByte(filler, '\n')+1]
	for pad := 0; pad <= len(group)+60; pad++ {
		// The pad line moves the group across the end of the first read;
		// what follows the group is long enough to refill the whole buffer.
		head := strings.Repeat("#", pad) + "\n" + filler
		input := head + group + filler + filler
		r := NewReader(strings.NewReader(input))
		if _, err := r.ReadAll(); err != nil {
			t.Fatal(err)
		}
		s := r.statics[227006560]
		if st := r.Stats(); st.Statics != 1 || st.BadNMEA != 0 || st.BadLines != 1 || s.Name != "EVER GIVEN" || s.CallSign != "TEST" {
			t.Fatalf("group at byte %d: stats %+v, static %+v", len(head), st, s)
		}
	}
}

// BenchmarkReadAll is the decode layer on its own: the benchmark's archive
// through NewReader(...).ReadAll, as polbuild and bench/ read it.
func BenchmarkReadAll(b *testing.B) {
	archive := fleetArchive()
	b.SetBytes(int64(len(archive)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := NewReader(bytes.NewReader(archive)).ReadAll()
		if err != nil || len(recs) != 83303 {
			b.Fatalf("%d records, error %v", len(recs), err)
		}
	}
}
