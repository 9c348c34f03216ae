package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// fleetShape sizes a base fleet; tests use a smaller one than the benchmark.
type fleetShape struct{ vessels, days int }

var benchFleet = fleetShape{baseVessels, baseDays}

// dataset is the seeded input of a run: the base fleet with its vessels
// reordered and each track shifted by a whole number of hours.
type dataset struct {
	statics []vesselInfo
	tracks  [][]record
	reports int
}

func makeDataset(seed int64, shape fleetShape) (*dataset, error) {
	statics, tracks, err := simFleet(shape.vessels, shape.days, baseSimSeed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{}
	for _, i := range rng.Perm(len(statics)) {
		if len(tracks[i]) == 0 {
			continue
		}
		shift := int64(rng.Intn(48)) * 3600
		tr := make([]record, len(tracks[i]))
		for j, r := range tracks[i] {
			r.Time += shift
			tr[j] = r
		}
		d.statics = append(d.statics, statics[i])
		d.tracks = append(d.tracks, tr)
		d.reports += len(tr)
	}
	return d, nil
}

// writeArchive writes the fleet as a timestamped-NMEA archive: the statics,
// then each vessel's track in turn.
func (d *dataset) writeArchive(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var all []record
	at := make([]int64, len(d.statics))
	for i, tr := range d.tracks {
		at[i] = tr[0].Time
		all = append(all, tr...)
	}
	if _, err := writeFeed(f, d.statics, at, all); err != nil {
		return err
	}
	return f.Close()
}

// reference is what set-up leaves for a workload: the archive, the inventory
// a single-process build makes of it, and that inventory's segment.
type reference struct {
	archive, segment string
	inv              *heapInv
	reports          int
	groups           int
}

// setUp generates the dataset and builds the reference under dir.
func setUp(seed int64, shape fleetShape, dir string) (*dataset, *reference, error) {
	d, err := makeDataset(seed, shape)
	if err != nil {
		return nil, nil, err
	}
	ref := &reference{
		archive: filepath.Join(dir, "fleet.nmea"),
		segment: filepath.Join(dir, "reference.polseg"),
	}
	if err := d.writeArchive(ref.archive); err != nil {
		return nil, nil, err
	}
	a, err := readArchive(ref.archive)
	if err != nil {
		return nil, nil, err
	}
	if len(a.recs) != d.reports {
		return nil, nil, fmt.Errorf("set-up: archive decodes to %d reports, wrote %d", len(a.recs), d.reports)
	}
	inv, _, err := buildLocal(a, newPortIndex())
	if err != nil {
		return nil, nil, err
	}
	if err := writeSegment(inv, ref.segment); err != nil {
		return nil, nil, err
	}
	ref.inv, ref.reports, ref.groups = inv, d.reports, inv.Len()
	return d, ref, nil
}

// liveStream is the time-ordered feed of the live-ingest workload, encoded
// once so the sender only writes bytes.
type liveStream struct {
	statics []vesselInfo
	recs    []record
	head    []byte   // the statics' NMEA lines
	lines   [][]byte // one NMEA line per record
}

// makeLiveStream takes the liveVessels vessels of lowest MMSI, clones them
// `clones` times under fresh MMSIs, starts each clone at its own hour, keeps
// one report in liveThin and merges everything by time.
func makeLiveStream(d *dataset, seed int64, clones, thin int) (*liveStream, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	s := &liveStream{}
	order := make([]int, len(d.statics))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return d.statics[order[a]].MMSI < d.statics[order[b]].MMSI })
	order = order[:min(liveVessels, len(order))]
	var at []int64
	for c := 0; c < clones; c++ {
		// Clones start evenly spread over ten days, so that trips complete
		// at the same pace through every seed's stream; the seed moves each
		// clone by up to two hours.
		shift := int64(c*10*24/clones+rng.Intn(3)) * 3600
		for _, i := range order {
			v := d.statics[i]
			v.MMSI += uint32(c) * 100000
			first := true
			for j, r := range d.tracks[i] {
				if j%thin != c%thin {
					continue
				}
				r.MMSI = v.MMSI
				r.Time += shift
				if first {
					s.statics, at, first = append(s.statics, v), append(at, r.Time), false
				}
				s.recs = append(s.recs, r)
			}
		}
	}
	sort.SliceStable(s.recs, func(i, j int) bool { return s.recs[i].Time < s.recs[j].Time })

	var buf bytes.Buffer
	if _, err := writeFeed(&buf, s.statics, at, s.recs); err != nil {
		return nil, err
	}
	all := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	if n := len(all); n > 0 && len(all[n-1]) == 0 {
		all = all[:n-1]
	}
	nHead := len(all) - len(s.recs)
	if nHead < len(s.statics) {
		return nil, fmt.Errorf("live stream: %d lines for %d statics and %d reports", len(all), len(s.statics), len(s.recs))
	}
	s.head = bytes.Join(all[:nHead], nil)
	s.lines = all[nHead:]
	return s, nil
}

// request is one query of the mix with the check of its answer against the
// reference view.
type request struct {
	route string
	path  string
	check func(body []byte) error
}

// makeRequests draws n requests of the query mix from the reference
// inventory. Cells are drawn uniformly, so lookups spread over all shards.
// A draw is kept only if the api handler over the reference itself answers
// it 200 with a body that passes the check: about one cell in a hundred holds
// a NaN statistic, which the handler answers with 200 and an empty body, and
// the workloads must not contain operations that fail on the parent commit.
// skipped counts the draws left out.
func makeRequests(ref view, seed int64, n int) (reqs []request, skipped int, err error) {
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	cells := ref.Cells(gsCell)
	var ods []groupKey
	ref.Each(func(k groupKey, _ *summary) bool {
		if k.Set == gsCellOD {
			ods = append(ods, k)
		}
		return true
	})
	if len(cells) == 0 || len(ods) == 0 {
		return nil, 0, fmt.Errorf("reference inventory has %d cells and %d OD groups", len(cells), len(ods))
	}
	sort.Slice(ods, func(i, j int) bool { return ods[i].String() < ods[j].String() })
	var wheel []string
	for _, m := range queryMix {
		for i := 0; i < m.share; i++ {
			wheel = append(wheel, m.route)
		}
	}
	ll := func(c cellID) string {
		lat, lng := cellCenter(c)
		return "lat=" + strconv.FormatFloat(lat, 'f', -1, 64) + "&lng=" + strconv.FormatFloat(lng, 'f', -1, 64)
	}
	od := func(k groupKey) string {
		return fmt.Sprintf("origin=%d&dest=%d&type=%s", uint32(k.Origin), uint32(k.Dest), vesselTypeName(k))
	}
	h := apiHandler(ref)
	for len(reqs) < n {
		if skipped > n {
			return nil, skipped, fmt.Errorf("query mix: %d of %d draws are not answerable from the reference", skipped, skipped+len(reqs))
		}
		route := wheel[rng.Intn(len(wheel))]
		r := request{route: route}
		switch route {
		case "cell":
			c := cells[rng.Intn(len(cells))]
			r.path = "/v1/cell?" + ll(c)
			r.check = func(body []byte) error { return checkCell(ref, c, body) }
		case "destinations":
			c := cells[rng.Intn(len(cells))]
			r.path = "/v1/destinations?" + ll(c) + "&n=5"
			r.check = func(body []byte) error { return checkDestinations(ref, c, body) }
		case "eta":
			k := ods[rng.Intn(len(ods))]
			r.path = "/v1/eta?" + ll(k.Cell) + "&" + od(k)
			r.check = func(body []byte) error { return checkETA(ref, k, body) }
		case "odcells":
			k := ods[rng.Intn(len(ods))]
			r.path = "/v1/odcells?" + od(k)
			r.check = func(body []byte) error { return checkODCells(ref, k, body) }
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, r.path, nil))
		if rec.Code != http.StatusOK || r.check(rec.Body.Bytes()) != nil {
			skipped++
			continue
		}
		reqs = append(reqs, r)
	}
	return reqs, skipped, nil
}

func checkCell(ref view, c cellID, body []byte) error {
	var got struct {
		Records   uint64  `json:"records"`
		Ships     uint64  `json:"ships"`
		SpeedMean float64 `json:"speedMeanKn"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	s, ok := ref.Cell(c)
	if !ok {
		return fmt.Errorf("cell %v not in reference", c)
	}
	if got.Records != cellRecords(s) || got.Ships != cellShips(s) || got.SpeedMean != cellSpeedMean(s) {
		return fmt.Errorf("cell %v: got records=%d ships=%d speed=%v, reference %d %d %v",
			c, got.Records, got.Ships, got.SpeedMean, cellRecords(s), cellShips(s), cellSpeedMean(s))
	}
	return nil
}

func checkDestinations(ref view, c cellID, body []byte) error {
	var got []struct {
		Count uint64 `json:"count"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	s, ok := ref.Cell(c)
	if !ok {
		return fmt.Errorf("cell %v not in reference", c)
	}
	want := topDestCounts(s)
	if len(got) != len(want) {
		return fmt.Errorf("destinations %v: %d entries, reference %d", c, len(got), len(want))
	}
	for i := range want {
		if got[i].Count != want[i] {
			return fmt.Errorf("destinations %v[%d]: count %d, reference %d", c, i, got[i].Count, want[i])
		}
	}
	return nil
}

func checkETA(ref view, k groupKey, body []byte) error {
	var got struct {
		Records uint64 `json:"records"`
		Source  string `json:"source"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	s, ok := ref.ODSummary(k.Cell, k.Origin, k.Dest, k.VType)
	if !ok {
		return fmt.Errorf("OD group %v not in reference", k)
	}
	if cellATARecords(s) > 0 && (got.Records != cellRecords(s) || got.Source != k.Set.String()) {
		return fmt.Errorf("eta %v: records=%d source=%q, reference %d %q", k, got.Records, got.Source, cellRecords(s), k.Set.String())
	}
	return nil
}

func checkODCells(ref view, k groupKey, body []byte) error {
	var got []json.RawMessage
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if want := len(ref.ODCells(k.Origin, k.Dest, k.VType)); len(got) != want {
		return fmt.Errorf("odcells %v: %d cells, reference %d", k, len(got), want)
	}
	return nil
}

// sendLog records when report i of a stream was sent (or, in the paced
// phase, was due), one entry per chunk of consecutive reports.
type sendLog struct {
	upTo []int   // reports sent once the chunk was written
	at   []int64 // Unix nanoseconds
}

func (l *sendLog) add(upTo int, at time.Time) {
	l.upTo = append(l.upTo, upTo)
	l.at = append(l.at, at.UnixNano())
}

// sentAt returns the send time of the n-th report (1-based).
func (l *sendLog) sentAt(n int) (int64, bool) {
	i := sort.SearchInts(l.upTo, n)
	if i == len(l.upTo) {
		return 0, false
	}
	return l.at[i], true
}

// publish is one published snapshot as the child saw it: when, and how many
// reports (raw) and trip records (used) it covers.
type publish struct {
	At   int64 `json:"at_ns"`
	Raw  int64 `json:"raw"`
	Used int64 `json:"used"`
}

// freshness joins the replica's publish log with the primary's and the send
// log: for each replica publish, the primary publish with the same trip
// records names the last report it covers, and the sample is the replica's
// publish time minus that report's send time. Publishes whose last report
// was sent before `from` (the burst phase) are left out.
func freshness(primary, replica []publish, sent *sendLog, from int) []float64 {
	rawByUsed := make(map[int64]int64, len(primary))
	for _, p := range primary {
		rawByUsed[p.Used] = p.Raw
	}
	var ms []float64
	for _, r := range replica {
		raw, ok := rawByUsed[r.Used]
		// Only the first replica publish of a merge is a sample: later ones
		// with the same trip records republish the same content.
		delete(rawByUsed, r.Used)
		if !ok || int(raw) <= from {
			continue
		}
		at, ok := sent.sentAt(int(raw))
		if !ok {
			continue
		}
		ms = append(ms, float64(r.At-at)/1e6)
	}
	return ms
}
