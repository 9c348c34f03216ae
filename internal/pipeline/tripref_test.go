package pipeline

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/patternsoflife/pol/internal/ais"
	"github.com/patternsoflife/pol/internal/feed"
	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/sim"
)

// The trip tracker as it was before its records moved into a record log,
// kept verbatim but for its names as the oracle of the log-backed one:
// every held report a model.PositionRecord in a doubling slice.

// refTripTracker is the streaming form of ExtractTrips: push one vessel's
// cleaned, time-ordered records and collect trips as port calls complete
// them. The batch ExtractTrips is implemented on top of this type, so both
// paths share one state machine. One tracker serves one vessel.
type refTripTracker struct {
	portIdx    *ports.Index
	minRecords int

	lastPort model.PortID
	cur      *Trip
	// visit buffers the records of an in-progress geofence visit.
	visit     []model.PositionRecord
	visitPort model.PortID
}

// newRefTripTracker returns a tracker over the geofence index (minRecords ≤ 0
// defaults to MinTripRecords).
func newRefTripTracker(portIdx *ports.Index, minRecords int) *refTripTracker {
	if minRecords <= 0 {
		minRecords = MinTripRecords
	}
	return &refTripTracker{portIdx: portIdx, minRecords: minRecords, lastPort: model.NoPort, visitPort: model.NoPort}
}

// Held returns the records the tracker holds: those of the open trip and of
// the buffered geofence visit.
func (t *refTripTracker) Held() int {
	n := len(t.visit)
	if t.cur != nil {
		n += len(t.cur.Records)
	}
	return n
}

// refTrackerState is the complete serializable state of a refTripTracker: the
// last confirmed port call, the open trip (if any), and the buffered
// geofence visit. Checkpoints persist it so trips that straddle a restart
// still complete with their full record span.
type refTrackerState struct {
	LastPort  model.PortID
	HasTrip   bool
	Trip      Trip // valid when HasTrip
	Visit     []model.PositionRecord
	VisitPort model.PortID
}

// State exports the tracker's mutable state. The returned slices alias
// the tracker's buffers; serialize before pushing more records.
func (t *refTripTracker) State() refTrackerState {
	s := refTrackerState{LastPort: t.lastPort, Visit: t.visit, VisitPort: t.visitPort}
	if t.cur != nil {
		s.HasTrip = true
		s.Trip = *t.cur
	}
	return s
}

// SetState restores previously exported state.
func (t *refTripTracker) SetState(s refTrackerState) {
	t.lastPort = s.LastPort
	t.visit = s.Visit
	t.visitPort = s.VisitPort
	if s.HasTrip {
		trip := s.Trip
		t.cur = &trip
	} else {
		t.cur = nil
	}
}

// isCall reports whether the buffered visit is an actual port call: a
// near-zero-speed fix, or a dwell of at least CallMinDwellSeconds.
func (t *refTripTracker) isCall() bool {
	if len(t.visit) == 0 {
		return false
	}
	for _, r := range t.visit {
		if !math.IsNaN(r.SOG) && r.SOG <= CallStopSpeedKnots {
			return true
		}
	}
	return t.visit[len(t.visit)-1].Time-t.visit[0].Time >= CallMinDwellSeconds
}

// closeTrip finishes the open trip at the given destination, appending it
// to out when it qualifies (a loop back into the origin is not a trip).
func (t *refTripTracker) closeTrip(dest model.PortID, out []Trip) []Trip {
	if t.cur != nil && dest != t.cur.Origin && len(t.cur.Records) >= t.minRecords {
		t.cur.Dest = dest
		t.cur.ArriveTime = t.cur.Records[len(t.cur.Records)-1].Time
		t.cur.ID = tripID(t.cur.Records[0].MMSI, t.cur.DepartTime)
		out = append(out, *t.cur)
	}
	t.cur = nil
	return out
}

// endVisit resolves the buffered geofence visit: a call closes the trip; a
// transit pass folds the visit records back into the ongoing trip.
func (t *refTripTracker) endVisit(out []Trip) []Trip {
	if t.visitPort == model.NoPort {
		return out
	}
	if t.isCall() {
		out = t.closeTrip(t.visitPort, out)
		t.lastPort = t.visitPort
	} else if t.cur != nil {
		t.cur.Records = append(t.cur.Records, t.visit...)
	}
	t.visit = nil
	t.visitPort = model.NoPort
	return out
}

// Push consumes one cleaned record and returns any trips it completes
// (at most one).
func (t *refTripTracker) Push(r model.PositionRecord) []Trip {
	var out []Trip
	port, inPort := t.portIdx.PortAt(r.Pos)
	if inPort {
		if t.visitPort != model.NoPort && port != t.visitPort {
			// Drifted into an adjacent overlapping fence: treat as a new
			// visit.
			out = t.endVisit(out)
		}
		t.visitPort = port
		t.visit = append(t.visit, r)
		return out
	}
	out = t.endVisit(out)
	if t.cur == nil {
		if t.lastPort == model.NoPort {
			return out // no known origin: excluded
		}
		t.cur = &Trip{Origin: t.lastPort, DepartTime: r.Time}
	}
	t.cur.Records = append(t.cur.Records, r)
	return out
}

// Flush resolves end-of-stream state: a final in-fence visit that
// qualifies as a call still completes the trip, exactly as the batch
// extractor does at dataset end. An unfinished trip (vessel still at sea)
// is excluded. The tracker remains usable afterwards.
func (t *refTripTracker) Flush() []Trip {
	var out []Trip
	if t.visitPort != model.NoPort && t.isCall() {
		out = t.closeTrip(t.visitPort, out)
		t.lastPort = t.visitPort
	}
	return out
}

// sameRecord compares every field bit for bit, so a NaN equals the same
// NaN and −0 differs from 0.
func sameRecord(a, b model.PositionRecord) bool {
	va, vb := logValues(&a), logValues(&b)
	for i := range va {
		if math.Float64bits(va[i]) != math.Float64bits(vb[i]) {
			return false
		}
	}
	return a.MMSI == b.MMSI && a.Time == b.Time && a.Status == b.Status
}

func sameRecords(a, b []model.PositionRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameRecord(a[i], b[i]) {
			return false
		}
	}
	return true
}

// tripDiff describes the first difference between two trip lists.
func tripDiff(got, want []Trip) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d trips, reference %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.ID != w.ID || g.Origin != w.Origin || g.Dest != w.Dest || g.DepartTime != w.DepartTime ||
			g.ArriveTime != w.ArriveTime || !sameRecords(g.Records, w.Records) {
			return fmt.Errorf("trip %d: %d %d→%d [%d, %d] %d records, reference %d %d→%d [%d, %d] %d records",
				i, g.ID, g.Origin, g.Dest, g.DepartTime, g.ArriveTime, len(g.Records),
				w.ID, w.Origin, w.Dest, w.DepartTime, w.ArriveTime, len(w.Records))
		}
	}
	return nil
}

// restored holds tr's exported state to ref's — the same ports, the same
// held records in the same order, the same split between trip and visit —
// and returns a tracker restored from a copy of it, as a checkpoint and a
// restart would.
func restored(t *testing.T, idx *ports.Index, tr *TripTracker, ref *refTripTracker) *TripTracker {
	t.Helper()
	s, rs := tr.State(), ref.State()
	want := rs.Visit
	var origin model.PortID
	if rs.HasTrip {
		want = append(append([]model.PositionRecord(nil), rs.Trip.Records...), rs.Visit...)
		origin = rs.Trip.Origin
	}
	got, err := DecodeRecordLog(nil, s.Log)
	if err != nil || !sameRecords(got, want) || s.TripRecords != len(rs.Trip.Records) ||
		s.Origin != origin || s.LastPort != rs.LastPort || s.VisitPort != rs.VisitPort {
		t.Fatalf("state: %d records (%v), %d of the trip from %d, last port %d, visit port %d; reference %d records, %d of the trip from %d, last port %d, visit port %d",
			len(got), err, s.TripRecords, s.Origin, s.LastPort, s.VisitPort,
			len(want), len(rs.Trip.Records), origin, rs.LastPort, rs.VisitPort)
	}
	s.Log = bytes.Clone(s.Log)
	if err := s.Validate(); err != nil {
		t.Fatalf("exported state does not validate: %v", err)
	}
	next := NewTripTracker(idx, 0)
	next.SetState(s)
	return next
}

// driveBoth pushes one vessel's stream through the tracker and the
// reference: the same trips and the same Held after every Push and after
// Flush, and the same state every restoreEvery pushes, where the tracker
// is swapped for one restored from it. It returns the trips completed.
func driveBoth(t *testing.T, idx *ports.Index, recs []model.PositionRecord, restoreEvery int) int {
	t.Helper()
	tr, ref := NewTripTracker(idx, 0), newRefTripTracker(idx, 0)
	trips := 0
	for i, r := range recs {
		got, want := tr.Push(r), ref.Push(r)
		if err := tripDiff(got, want); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		if tr.Held() != ref.Held() {
			t.Fatalf("push %d: held %d, reference %d", i, tr.Held(), ref.Held())
		}
		trips += len(got)
		if restoreEvery > 0 && i%restoreEvery == restoreEvery-1 {
			tr = restored(t, idx, tr, ref)
		}
	}
	got, want := tr.Flush(), ref.Flush()
	if err := tripDiff(got, want); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if tr.Held() != ref.Held() {
		t.Fatalf("flush: held %d, reference %d", tr.Held(), ref.Held())
	}
	restored(t, idx, tr, ref)
	return trips + len(got)
}

// simTracks returns the tracks of a simulated fleet, one per vessel.
func simTracks(t testing.TB, cfg sim.Config) ([][]model.PositionRecord, *ports.Index) {
	t.Helper()
	gaz := ports.Default()
	s, err := sim.New(cfg, gaz)
	if err != nil {
		t.Fatal(err)
	}
	tracks := make([][]model.PositionRecord, len(s.Fleet().Vessels))
	for i := range tracks {
		tracks[i], _ = s.VesselTrack(i)
	}
	return tracks, ports.NewIndex(gaz, ports.IndexResolution)
}

// throughNMEA writes the tracks as NMEA and reads them back, one track per
// vessel in ascending MMSI order: every field is then an AIS quantum, or
// NaN where the protocol has no value.
func throughNMEA(t testing.TB, tracks [][]model.PositionRecord) [][]model.PositionRecord {
	t.Helper()
	var buf bytes.Buffer
	w := feed.NewWriter(&buf)
	for _, tr := range tracks {
		for _, r := range tr {
			if err := w.WritePosition(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := feed.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	byVessel := make(map[uint32][]model.PositionRecord)
	for _, r := range recs {
		byVessel[r.MMSI] = append(byVessel[r.MMSI], r)
	}
	out := make([][]model.PositionRecord, 0, len(byVessel))
	for _, tr := range byVessel {
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].MMSI < out[j][0].MMSI })
	return out
}

// TestTripTrackerMatchesReference drives the tracker and the reference with
// cleaned simulated fleets, as decoded from NMEA and as the simulator's
// raw floats.
func TestTripTrackerMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		tracks, idx := simTracks(t, sim.Config{Vessels: 10, Days: 16, Seed: seed})
		for name, fleet := range map[string][][]model.PositionRecord{"nmea": throughNMEA(t, tracks), "raw": tracks} {
			trips := 0
			for i, tr := range fleet {
				trips += driveBoth(t, idx, CleanVessel(tr, MaxSpeedKnots), 97+i)
			}
			t.Logf("seed %d %s: %d vessels, %d trips", seed, name, len(fleet), trips)
			if trips == 0 {
				t.Errorf("seed %d %s: no trip completed", seed, name)
			}
		}
	}
}

// wildStream is one vessel's stream of what the cleaner never lets through
// beside the geometry trips are made of: positions at a port's centre, on
// the edges of its fence and of its neighbours' (so consecutive records
// drift from fence to fence), and at sea; stops, dwells and passes; time
// steps back, zero and forward; NaN speeds, courses and headings; raw
// floats beside AIS quanta, −0; a status and, rarely, an MMSI that change.
func wildStream(rng *rand.Rand, gaz *ports.Gazetteer, n int) []model.PositionRecord {
	all := gaz.All()
	base := all[rng.Intn(len(all))]
	sort.Slice(all, func(i, j int) bool {
		return geo.Haversine(base.Pos, all[i].Pos) < geo.Haversine(base.Pos, all[j].Pos)
	})
	near := all[:4]
	value := func(v, unit float64) float64 {
		switch rng.Intn(8) {
		case 0:
			return v // a raw float
		case 1:
			return math.NaN()
		case 2:
			return math.Copysign(0, -1)
		default:
			return math.Round(v*unit) / unit
		}
	}
	mmsi, status, tt := uint32(200000000+rng.Intn(1000)), ais.NavStatus(0), int64(1_600_000_000)
	out := make([]model.PositionRecord, 0, n)
	for len(out) < n {
		var p geo.LatLng
		port := near[rng.Intn(len(near))]
		switch rng.Intn(4) {
		case 0:
			p = port.Pos
		case 1, 2:
			p = geo.Destination(port.Pos, rng.Float64()*360, port.FenceRadiusM()*(0.5+rng.Float64()))
		default:
			p = geo.Destination(base.Pos, rng.Float64()*360, 50e3+rng.Float64()*250e3)
		}
		switch rng.Intn(10) {
		case 0:
			tt -= int64(rng.Intn(900))
		case 1:
		case 2:
			tt += 4 * 3600
		default:
			tt += int64(30 + rng.Intn(1800))
		}
		if rng.Intn(20) == 0 {
			status = ais.NavStatus(rng.Intn(16))
		}
		if rng.Intn(200) == 0 {
			mmsi++
		}
		sog := 0.4
		if rng.Intn(3) > 0 {
			sog = 8 + rng.Float64()*12
		}
		out = append(out, model.PositionRecord{
			MMSI: mmsi, Time: tt, Status: status,
			Pos: geo.LatLng{Lat: value(p.Lat, 600000), Lng: value(p.Lng, 600000)},
			SOG: value(sog, 10), COG: value(rng.Float64()*360, 10), Heading: value(float64(rng.Intn(360)), 1),
		})
	}
	return out
}

// TestTripTrackerMatchesReferenceWild drives both trackers with uncleaned
// streams around clusters of ports.
func TestTripTrackerMatchesReferenceWild(t *testing.T) {
	gaz := ports.Default()
	idx := ports.NewIndex(gaz, ports.IndexResolution)
	trips := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		trips += driveBoth(t, idx, wildStream(rng, gaz, 3000), 1+rng.Intn(500))
	}
	t.Logf("%d trips", trips)
	if trips < 100 {
		t.Errorf("only %d trips completed: the streams do not reach the call paths", trips)
	}
}

// TestFlushKeepsTheVisit: after Flush completes a trip at a final call, the
// visit stays buffered and later records extend it, as in the reference.
func TestFlushKeepsTheVisit(t *testing.T) {
	recs, idx, _, dest := tripFixture(t)
	tr, ref := NewTripTracker(idx, 0), newRefTripTracker(idx, 0)
	for _, r := range recs {
		tr.Push(r)
		ref.Push(r)
	}
	got, want := tr.Flush(), ref.Flush()
	if err := tripDiff(got, want); err != nil || len(got) != 1 || got[0].Dest != dest {
		t.Fatalf("flush: %d trips, %v", len(got), err)
	}
	last := recs[len(recs)-1]
	for i := 0; i < 3; i++ {
		last.Time += 600
		if err := tripDiff(tr.Push(last), ref.Push(last)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Held() != 6 || ref.Held() != 6 {
		t.Fatalf("held %d, reference %d; want the 3 visit records plus 3", tr.Held(), ref.Held())
	}
	restored(t, idx, tr, ref)
}

// TestRecordLogRoundTrip: every record comes back with the same bits,
// escaped or not, and a log of AIS quanta costs what the deltas do.
func TestRecordLogRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := wildStream(rng, ports.Default(), 5000)
	recs = append(recs,
		model.PositionRecord{MMSI: math.MaxUint32, Time: math.MaxInt64, Status: 255,
			Pos: geo.LatLng{Lat: math.Inf(1), Lng: -1e300}, SOG: math.Float64frombits(1), COG: 1e15, Heading: -1e16},
		model.PositionRecord{Time: math.MinInt64, Pos: geo.LatLng{Lat: 90, Lng: -180}, SOG: 102.2, COG: 359.9, Heading: 359})
	for _, k := range []float64{logMaxCount - 1, -(logMaxCount - 1), logMaxCount, -logMaxCount} {
		recs = append(recs, model.PositionRecord{Pos: geo.LatLng{Lat: k / logUnits[0], Lng: k / logUnits[1]},
			SOG: k / logUnits[2], COG: k / logUnits[3], Heading: k / logUnits[4]})
	}
	var l recordLog
	for _, r := range recs {
		l.append(r)
	}
	got, err := DecodeRecordLog(nil, l.bytes())
	if err != nil || !sameRecords(got, recs) {
		t.Fatalf("%d records decoded (%v), %d appended", len(got), err, len(recs))
	}
	if l.n != len(recs) {
		t.Fatalf("log counts %d records, %d appended", l.n, len(recs))
	}
	if err := reencodes(l.bytes()); err != nil {
		t.Fatal(err)
	}
}

// logMinRecord is the shortest record: a header, a time and one byte per
// field.
const logMinRecord = 1 + 1 + logFields

// reencodes checks that the log b, if it decodes, is what appending its
// records writes, and that it is not too short for that many records.
func reencodes(b []byte) error {
	recs, err := DecodeRecordLog(nil, b)
	if err != nil {
		return nil
	}
	if len(recs)*logMinRecord > len(b) {
		return fmt.Errorf("%d records in %d bytes", len(recs), len(b))
	}
	var l recordLog
	for _, r := range recs {
		l.append(r)
	}
	if !bytes.Equal(l.bytes(), b) {
		return fmt.Errorf("%d records re-encode to %x, decoded from %x", len(recs), l.bytes(), b)
	}
	return nil
}

// TestRecordLogRefusesNonCanonical: each byte string the encoder would not
// write is refused.
func TestRecordLogRefusesNonCanonical(t *testing.T) {
	var l recordLog
	l.append(model.PositionRecord{MMSI: 7, Time: 100, Pos: geo.LatLng{Lat: 1, Lng: 2}, SOG: 0.5, COG: 10, Heading: 11})
	good := l.bytes()
	if _, err := DecodeRecordLog(nil, good); err != nil {
		t.Fatal(err)
	}
	escaped := []byte{0x01 | logMMSI, 7, 200, 1}
	escaped = append(escaped, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}...) // 1.0, a quantum count
	escaped = append(escaped, good[len(good)-4:]...)
	for name, b := range map[string][]byte{
		"reserved bit":       append([]byte{good[0] | logReserved}, good[1:]...),
		"overlong varint":    append([]byte{good[0], 7 | 0x80, 0}, good[2:]...),
		"unchanged MMSI":     {logMMSI, 0, 0, 0, 0, 0, 0, 0},
		"unchanged status":   {logStatus, 0, 0, 0, 0, 0, 0, 0},
		"escaped quantum":    escaped,
		"truncated":          good[:len(good)-1],
		"count past 2^53":    {0, 0, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 0, 0, 0},
		"varint overflowing": {0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0, 0, 0, 0, 0},
	} {
		if recs, err := DecodeRecordLog(nil, b); err == nil {
			t.Errorf("%s: %x decoded to %d records", name, b, len(recs))
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

var updateSeeds = flag.Bool("update", false, "rewrite testdata/fuzz seeds")

// recordSeq reads data as a record sequence, 25 bytes a record: a 2-byte
// MMSI, a status byte, a signed 2-byte time step, then per field 4 bytes
// whose low two bits pick an AIS quantum count, a NaN, a raw float or
// arbitrary bits.
func recordSeq(data []byte) []model.PositionRecord {
	var out []model.PositionRecord
	var tt int64
	for ; len(data) >= 25; data = data[25:] {
		tt += int64(int16(uint16(data[3]) | uint16(data[4])<<8))
		r := model.PositionRecord{MMSI: uint32(data[0]) | uint32(data[1])<<8, Status: ais.NavStatus(data[2]), Time: tt}
		var v [logFields]float64
		for i := range v {
			x := int32(uint32(data[5+4*i]) | uint32(data[6+4*i])<<8 | uint32(data[7+4*i])<<16 | uint32(data[8+4*i])<<24)
			switch x & 3 {
			case 0:
				v[i] = float64(x>>2) / logUnits[i]
			case 1:
				v[i] = math.Float64frombits(0x7ff8000000000000 | uint64(uint32(x)))
			case 2:
				v[i] = float64(x) / 7
			default:
				v[i] = math.Float64frombits(uint64(uint32(x))<<32 | uint64(uint32(x)))
			}
		}
		r.Pos.Lat, r.Pos.Lng, r.SOG, r.COG, r.Heading = v[0], v[1], v[2], v[3], v[4]
		out = append(out, r)
	}
	return out
}

// fuzzSeeds: logs of NMEA-decoded and of raw records, torn and
// bit-flipped ones, and record sequences for the second reading.
func fuzzSeeds(t testing.TB) [][]byte {
	recs, _, _, _ := tripFixture(t.(*testing.T))
	var raw, quanta recordLog
	for _, r := range recs {
		raw.append(r)
		r.Pos.Lat, r.Pos.Lng = math.Round(r.Pos.Lat*600000)/600000, math.Round(r.Pos.Lng*600000)/600000
		r.SOG, r.COG, r.Heading = math.Round(r.SOG*10)/10, math.Round(r.COG*10)/10, math.NaN()
		quanta.append(r)
	}
	q := quanta.bytes()
	flipped := bytes.Clone(q)
	flipped[len(flipped)/2] ^= 0x10
	seq := make([]byte, 25*6)
	rng := rand.New(rand.NewSource(1))
	rng.Read(seq)
	return [][]byte{q, raw.bytes()[:60], q[:len(q)-3], flipped, seq}
}

// TestFuzzSeedsCommitted keeps testdata/fuzz populated and current (go
// test ./internal/pipeline -run FuzzSeeds -update rewrites it).
func TestFuzzSeedsCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzRecordLog")
	for i, seed := range fuzzSeeds(t) {
		path, want := filepath.Join(dir, fmt.Sprintf("seed-%d", i)), fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if *updateSeeds {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
		} else if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("%s is missing or stale (run go test ./internal/pipeline -run FuzzSeeds -update)", path)
		}
	}
}

// FuzzRecordLog: the input read as a log never panics, decodes to at most
// one record per logMinRecord bytes, and re-encodes to itself when it
// decodes; read as a record sequence, it round-trips through a log with
// every field's bits.
func FuzzRecordLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := reencodes(data); err != nil {
			t.Fatal(err)
		}
		recs := recordSeq(data)
		var l recordLog
		for _, r := range recs {
			l.append(r)
		}
		got, err := DecodeRecordLog(nil, l.bytes())
		if err != nil || !sameRecords(got, recs) {
			t.Fatalf("%d records decoded (%v), %d appended", len(got), err, len(recs))
		}
		if err := reencodes(l.bytes()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOpenTripBytesPerRecord reports what a held record costs in the
// trackers' logs, over every push of a 24-vessel, 12-day simulated fleet
// (the testutil fixtures' size): decoded from NMEA, every field an AIS
// quantum, as the live path holds them (≤ 12 B); and as the simulator's
// raw floats, whose fields mostly escape (≤ 53 B, a POLSTAT1 record). The
// reference tracker's slices are weighed beside them, capacity included.
func TestOpenTripBytesPerRecord(t *testing.T) {
	tracks, idx := simTracks(t, sim.Config{Vessels: 24, Days: 12, Seed: 1})
	const recordSize = 64 // a model.PositionRecord
	for _, tc := range []struct {
		name  string
		fleet [][]model.PositionRecord
		bound float64
	}{{"nmea", throughNMEA(t, tracks), 12}, {"raw", tracks, 53}} {
		var bytes, capacity, refCapacity, held, pushes int
		for _, track := range tc.fleet {
			tr, ref := NewTripTracker(idx, 0), newRefTripTracker(idx, 0)
			for _, r := range CleanVessel(track, MaxSpeedKnots) {
				tr.Push(r)
				ref.Push(r)
				pushes++
				bytes += len(tr.log.buf)
				capacity += cap(tr.log.buf)
				held += tr.Held()
				refCapacity += cap(ref.visit) * recordSize
				if ref.cur != nil {
					refCapacity += cap(ref.cur.Records) * recordSize
				}
			}
		}
		per := float64(bytes) / float64(held)
		t.Logf("%s: %.2f B per held record (%.2f B with spare capacity; the reference %.2f B), over %d pushes",
			tc.name, per, float64(capacity)/float64(held), float64(refCapacity)/float64(held), pushes)
		if per > tc.bound {
			t.Errorf("%s: %.2f B per held record, want ≤ %.0f", tc.name, per, tc.bound)
		}
	}
}

// recordSink keeps BenchmarkRecordLog's results live.
var recordSink []model.PositionRecord

// BenchmarkRecordLog: append and decode per record, one NMEA-decoded
// vessel track; the append side starts each pass from an empty log, as a
// trip does.
func BenchmarkRecordLog(b *testing.B) {
	tracks, _ := simTracks(b, sim.Config{Vessels: 4, Days: 12, Seed: 1})
	recs := throughNMEA(b, tracks)[0]
	b.Run("append", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var l recordLog
			for _, r := range recs {
				l.append(r)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
	})
	var l recordLog
	for _, r := range recs {
		l.append(r)
	}
	dst := make([]model.PositionRecord, 0, len(recs))
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			recordSink, _ = DecodeRecordLog(dst[:0], l.bytes())
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
	})
}

// TestVesselInfoCodec: the one static codec carries every VesselInfo bit
// for bit — names past 255 bytes, negative and past-2³² dimensions, any
// design-speed bits — and refuses what it would not write: a class-A byte
// above 1, an MMSI past 32 bits, an overlong varint, truncated bytes.
func TestVesselInfoCodec(t *testing.T) {
	for i, v := range []model.VesselInfo{
		{},
		{MMSI: 227000001, IMO: 9000001, Name: strings.Repeat("N", 300), CallSign: strings.Repeat("C", 256), Type: model.VesselTanker,
			GRT: 60000, LengthM: -1, BeamM: 1 << 40, DesignSpeed: 14.5, ClassA: true},
		{MMSI: math.MaxUint32, IMO: math.MaxUint32, Name: "ÅLESUND 船", CallSign: "\x00\xff", Type: 255,
			GRT: math.MinInt64, LengthM: math.MaxInt64, BeamM: -(1 << 33), DesignSpeed: math.Float64frombits(0xfff8000000000abc)},
		{MMSI: 1, DesignSpeed: math.Copysign(0, -1)},
	} {
		b := AppendVesselInfo([]byte{0xee}, v)[1:]
		got, n, err := DecodeVesselInfo(append(bytes.Clone(b), 0xee))
		if err != nil || n != len(b) {
			t.Fatalf("static %d: %v, %d of %d bytes", i, err, n, len(b))
		}
		if math.Float64bits(got.DesignSpeed) != math.Float64bits(v.DesignSpeed) {
			t.Errorf("static %d: design speed %x, want %x", i, math.Float64bits(got.DesignSpeed), math.Float64bits(v.DesignSpeed))
		}
		got.DesignSpeed, v.DesignSpeed = 0, 0
		if got != v {
			t.Errorf("static %d: %+v, want %+v", i, got, v)
		}
	}
	good := AppendVesselInfo(nil, model.VesselInfo{MMSI: 7, Name: "AB"})
	classA := bytes.Clone(good)
	classA[len(classA)-5] = 2 // before the name's length and bytes and the call sign's length
	for name, b := range map[string][]byte{
		"class-A byte 2":  classA,
		"MMSI past 2^32":  append(binary.AppendUvarint(nil, math.MaxUint32+1), good[1:]...),
		"overlong varint": append([]byte{7 | 0x80, 0}, good[1:]...),
		"truncated":       good[:len(good)-1],
		"long name":       append(bytes.Clone(good[:len(good)-4]), 9, 'A', 'B', 0),
	} {
		if v, n, err := DecodeVesselInfo(b); err == nil {
			t.Errorf("%s: %x decoded to %+v (%d bytes)", name, b, v, n)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}
