package feed

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"github.com/patternsoflife/pol/internal/ais"
	"github.com/patternsoflife/pol/internal/model"
)

// positionLine encodes one position report as a single timestamped line.
func positionLine(t *testing.T, mmsi uint32, ts int64) string {
	t.Helper()
	lines, err := ais.EncodePosition(ais.PositionReport{
		Type: ais.TypePositionA1, MMSI: mmsi, Status: ais.StatusUnderWayEngine,
		Lon: 3.2, Lat: 51.9, SOG: 12, COG: 90, Heading: 91, Timestamp: int(ts % 60),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 {
		t.Fatalf("position encoded to %d sentences", len(lines))
	}
	return fmt.Sprintf("%d\t%s", ts, lines[0])
}

// staticLines encodes one type-5 static report; type-5 payloads always
// span two sentences sharing seqID.
func staticLines(t *testing.T, mmsi uint32, name string, seq int, ts int64) []string {
	t.Helper()
	lines, err := ais.EncodeStatic(ais.StaticReport{
		MMSI: mmsi, IMO: 1000000 + mmsi%1000000, CallSign: "TEST", Name: name,
		ShipType: model.VesselCargo.AISShipType(),
		DimBow:   100, DimStern: 100, DimPort: 15, DimStarb: 15, Draught: 9,
	}, seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("static encoded to %d sentences, want multi-sentence", len(lines))
	}
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = fmt.Sprintf("%d\t%s", ts, l)
	}
	return out
}

// TestReaderTruncatedTimestampLine: a line whose timestamp field is cut
// off mid-stream must count as a bad line without desynchronizing the
// records around it.
func TestReaderTruncatedTimestampLine(t *testing.T) {
	input := strings.Join([]string{
		positionLine(t, 219000001, 1641038400),
		"16410384", // truncated: no tab, no sentence
		positionLine(t, 219000001, 1641038460),
	}, "\n")
	r := NewReader(strings.NewReader(input))
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("decoded %d records around the truncated line, want 2", len(recs))
	}
	st := r.Stats()
	if st.Lines != 3 || st.BadLines != 1 || st.BadNMEA != 0 || st.Positions != 2 {
		t.Errorf("stats %+v, want lines=3 badLines=1 badNMEA=0 positions=2", st)
	}
}

// TestReaderBadChecksumMidStream: a corrupted sentence between two valid
// ones must count as BadNMEA and not affect its neighbours.
func TestReaderBadChecksumMidStream(t *testing.T) {
	good := positionLine(t, 219000001, 1641038460)
	// Corrupt one payload character of a valid line, keeping the checksum,
	// so verification fails.
	tab := strings.IndexByte(good, '\t')
	sentence := good[tab+1:]
	payloadStart := strings.Index(sentence, ",A,") + 3
	corrupted := sentence[:payloadStart] + flipChar(sentence[payloadStart]) + sentence[payloadStart+1:]
	input := strings.Join([]string{
		positionLine(t, 219000001, 1641038400),
		fmt.Sprintf("%d\t%s", int64(1641038430), corrupted),
		good,
	}, "\n")

	r := NewReader(strings.NewReader(input))
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("decoded %d records around the corrupt line, want 2", len(recs))
	}
	st := r.Stats()
	if st.BadNMEA != 1 || st.BadLines != 0 || st.Positions != 2 {
		t.Errorf("stats %+v, want badNMEA=1 badLines=0 positions=2", st)
	}
}

func flipChar(c byte) string {
	if c == '0' {
		return "1"
	}
	return "0"
}

// TestReaderInterleavedMultiSentenceGroups: two vessels' two-sentence
// type-5 messages arrive interleaved (a1, b1, a2, b2) with distinct
// sequence ids, as happens on a multiplexed receiver feed. Both must
// assemble; the counters must show two statics and no errors.
func TestReaderInterleavedMultiSentenceGroups(t *testing.T) {
	a := staticLines(t, 219000001, "ALFA", 1, 1641038400)
	b := staticLines(t, 219000002, "BRAVO", 2, 1641038401)
	input := strings.Join([]string{a[0], b[0], a[1], b[1]}, "\n")

	r := NewReader(strings.NewReader(input))
	var items []Item
	for {
		it, err := r.NextItem()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, it)
	}
	if len(items) != 2 {
		t.Fatalf("assembled %d statics from interleaved groups, want 2", len(items))
	}
	for _, it := range items {
		if it.Kind != ItemStatic {
			t.Fatalf("unexpected item kind %d", it.Kind)
		}
	}
	st := r.Stats()
	if st.Statics != 2 || st.BadNMEA != 0 || st.BadLines != 0 {
		t.Errorf("stats %+v, want statics=2 and no errors", st)
	}
	statics := r.statics
	if statics[219000001].Name != "ALFA" || statics[219000002].Name != "BRAVO" {
		t.Errorf("statics misattributed across interleaved groups: %+v", statics)
	}
	// The same-seq-id restart case: a group interrupted by a restart of
	// its own sequence id must drop the stale fragments, not mix payloads.
	c := staticLines(t, 219000003, "CHARLIE", 3, 1641038402)
	d := staticLines(t, 219000004, "DELTA", 3, 1641038403) // same seq id
	r2 := NewReader(strings.NewReader(strings.Join([]string{c[0], d[0], d[1]}, "\n")))
	n := 0
	for {
		it, err := r2.NextItem()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if it.Kind == ItemStatic {
			if it.Static.MMSI != 219000004 {
				t.Errorf("restarted group decoded wrong vessel %d", it.Static.MMSI)
			}
			n++
		}
	}
	if n != 1 {
		t.Errorf("restarted seq id produced %d statics, want 1 (DELTA only)", n)
	}
}

// TestNextItemStreamOrder: items surface in stream order with their line
// timestamps, positions and statics interleaved — the contract the live
// ingestion path depends on.
func TestNextItemStreamOrder(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s\n", positionLine(t, 219000001, 100))
	for _, l := range staticLines(t, 219000002, "ECHO", 4, 200) {
		fmt.Fprintf(&buf, "%s\n", l)
	}
	fmt.Fprintf(&buf, "%s\n", positionLine(t, 219000002, 300))

	r := NewReader(&buf)
	var kinds []ItemKind
	var times []int64
	for {
		it, err := r.NextItem()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, it.Kind)
		times = append(times, it.Time)
	}
	wantKinds := []ItemKind{ItemPosition, ItemStatic, ItemPosition}
	wantTimes := []int64{100, 200, 300}
	if len(kinds) != 3 {
		t.Fatalf("got %d items, want 3", len(kinds))
	}
	for i := range kinds {
		if kinds[i] != wantKinds[i] || times[i] != wantTimes[i] {
			t.Errorf("item %d = (%d, %d), want (%d, %d)", i, kinds[i], times[i], wantKinds[i], wantTimes[i])
		}
	}
	if r.statics[219000002].Name != "ECHO" {
		t.Error("static not collected alongside NextItem")
	}
}
