// Online (incremental) forms of the paper's §3.3.1–§3.3.2 cleaning and
// trip-extraction stages, shared by the batch pipeline and the live
// ingestion subsystem (internal/ingest). The batch path sorts a vessel's
// records and feeds them through the same state machines, so a live stream
// delivered in per-vessel timestamp order converges to the batch result
// exactly.

package pipeline

import (
	"fmt"
	"math"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/ports"
)

// RejectReason classifies why the online cleaner refused a record.
type RejectReason uint8

// Reject reasons, in check order.
const (
	// RejectNone: the record was accepted.
	RejectNone RejectReason = iota
	// RejectRange: a protocol value range violation (§3.3.1).
	RejectRange
	// RejectDuplicate: same timestamp as the previous surviving record of
	// this vessel.
	RejectDuplicate
	// RejectOutOfOrder: older than the previous surviving record. The batch
	// path sorts instead; a live stream must drop (or re-order upstream).
	RejectOutOfOrder
	// RejectInfeasible: the transition from the last accepted position
	// implies a speed above the feasibility threshold (50 knots).
	RejectInfeasible
)

// String returns the reason label used by ingest counters.
func (r RejectReason) String() string {
	switch r {
	case RejectNone:
		return "accepted"
	case RejectRange:
		return "range"
	case RejectDuplicate:
		return "duplicate"
	case RejectOutOfOrder:
		return "out-of-order"
	case RejectInfeasible:
		return "infeasible"
	default:
		return "unknown"
	}
}

// OnlineCleaner applies the §3.3.1 per-vessel cleaning incrementally:
// protocol range validation, duplicate-timestamp removal, monotonic-time
// enforcement, and the infeasible-transition (50-knot) filter. The zero
// value is not ready; construct with NewOnlineCleaner. One cleaner serves
// one vessel.
type OnlineCleaner struct {
	maxSpeedKnots float64
	// prevTime is the timestamp of the last record surviving range
	// validation and deduplication — the dedup reference, matching the batch
	// path where deduplication precedes the speed filter.
	prevTime int64
	hasPrev  bool
	// last is the last fully accepted record — the speed-filter reference.
	last    model.PositionRecord
	hasLast bool
}

// NewOnlineCleaner returns a cleaner with the given feasibility threshold
// (values ≤ 0 default to MaxSpeedKnots).
func NewOnlineCleaner(maxSpeedKnots float64) *OnlineCleaner {
	if maxSpeedKnots <= 0 {
		maxSpeedKnots = MaxSpeedKnots
	}
	return &OnlineCleaner{maxSpeedKnots: maxSpeedKnots}
}

// CleanerState is the complete serializable state of an OnlineCleaner —
// checkpoints persist it so a restarted engine resumes dedup and speed
// filtering exactly where the crashed process stopped.
type CleanerState struct {
	PrevTime int64
	HasPrev  bool
	Last     model.PositionRecord
	HasLast  bool
}

// State exports the cleaner's mutable state (the threshold is configured,
// not state).
func (c *OnlineCleaner) State() CleanerState {
	return CleanerState{PrevTime: c.prevTime, HasPrev: c.hasPrev, Last: c.last, HasLast: c.hasLast}
}

// SetState restores previously exported state.
func (c *OnlineCleaner) SetState(s CleanerState) {
	c.prevTime, c.hasPrev, c.last, c.hasLast = s.PrevTime, s.HasPrev, s.Last, s.HasLast
}

// Accept runs one record through the cleaning checks and returns
// RejectNone when it survives all of them. State advances exactly as the
// batch stage does: a speed-infeasible record still advances the dedup
// reference but not the speed reference.
func (c *OnlineCleaner) Accept(r model.PositionRecord) RejectReason {
	if !validRanges(r) {
		return RejectRange
	}
	if c.hasPrev {
		if r.Time == c.prevTime {
			return RejectDuplicate
		}
		if r.Time < c.prevTime {
			return RejectOutOfOrder
		}
	}
	c.prevTime = r.Time
	c.hasPrev = true
	if c.hasLast {
		dt := float64(r.Time - c.last.Time)
		if geo.SpeedKnots(c.last.Pos, r.Pos, dt) > c.maxSpeedKnots {
			return RejectInfeasible
		}
	}
	c.last = r
	c.hasLast = true
	return RejectNone
}

// TripTracker is the streaming form of ExtractTrips: push one vessel's
// cleaned, time-ordered records and collect trips as port calls complete
// them. The batch ExtractTrips is implemented on top of this type, so both
// paths share one state machine. One tracker serves one vessel.
//
// The records it holds — the open trip's, then those of the geofence
// visit in progress — live in one record log (recordlog.go), about 11
// bytes a record for AIS-decoded reports. Only a port call that closes the
// trip decodes them; whether a visit is a call, and how many records are
// held, are kept up to date as records arrive.
type TripTracker struct {
	portIdx    *ports.Index
	minRecords int

	lastPort model.PortID
	// log holds the open trip's records, then the buffered visit's.
	log recordLog
	// The open trip is the first tripN records, tripBytes bytes, of log;
	// there is one exactly when tripN > 0.
	tripN, tripBytes int
	origin           model.PortID
	// The visit in progress, the rest of log; there is one exactly when
	// visitPort is a port.
	visitPort             model.PortID
	visitFirst, visitLast int64 // its first and last record times
	visitStop             bool  // one of its records is at or below CallStopSpeedKnots
}

// NewTripTracker returns a tracker over the geofence index (minRecords ≤ 0
// defaults to MinTripRecords).
func NewTripTracker(portIdx *ports.Index, minRecords int) *TripTracker {
	if minRecords <= 0 {
		minRecords = MinTripRecords
	}
	return &TripTracker{portIdx: portIdx, minRecords: minRecords, lastPort: model.NoPort, visitPort: model.NoPort}
}

// Held returns the records the tracker holds: those of the open trip and of
// the buffered geofence visit.
func (t *TripTracker) Held() int { return t.log.n }

// TrackerState is the complete serializable state of a TripTracker: the
// last confirmed port call, and the record log of the open trip (if any)
// followed by the buffered geofence visit. Checkpoints persist it so trips
// that straddle a restart still complete with their full record span.
type TrackerState struct {
	LastPort model.PortID
	// Origin is the open trip's origin port; TripRecords counts the open
	// trip's records, the first of Log (zero when no trip is open).
	Origin      model.PortID
	TripRecords int
	// VisitPort is the port of the buffered visit, whose records are the
	// rest of Log (model.NoPort when there are none).
	VisitPort model.PortID
	Log       []byte

	// derived is what a tracker keeps as records arrive: State copies it,
	// Validate decodes it from Log, and SetState takes it without decoding.
	derived   TripTracker
	validated bool
}

// State exports the tracker's mutable state. Log is the tracker's own
// buffer clipped to its length: the tracker only appends past it, and a
// closed trip starts a new buffer, so the bytes stay valid to read while
// the tracker keeps pushing.
func (t *TripTracker) State() TrackerState {
	return TrackerState{LastPort: t.lastPort, Origin: t.origin, TripRecords: t.tripN, VisitPort: t.visitPort,
		Log: t.log.bytes(), derived: *t, validated: true}
}

// Validate reports whether s is a state a tracker could have exported:
// its log decodes, the open trip takes at most all of its records, and the
// rest are a visit exactly when VisitPort names a port. It decodes the log
// once, for SetState too.
func (s *TrackerState) Validate() error {
	s.validated = false
	if s.TripRecords < 0 || (s.TripRecords == 0 && s.Origin != model.NoPort) {
		return fmt.Errorf("tracker state: %d trip records from origin %d", s.TripRecords, s.Origin)
	}
	var t TripTracker
	d := logDecoder{b: s.Log}
	for r, ok := d.next(); ok; r, ok = d.next() {
		t.log.n++
		if t.log.n <= s.TripRecords {
			t.tripBytes = d.off
			continue
		}
		if t.log.n == s.TripRecords+1 {
			t.visitFirst = r.Time
		}
		t.visitLast = r.Time
		t.visitStop = t.visitStop || stops(r)
	}
	if d.err != nil {
		return fmt.Errorf("tracker state: %w", d.err)
	}
	if t.log.n < s.TripRecords || (t.log.n > s.TripRecords) != (s.VisitPort != model.NoPort) {
		return fmt.Errorf("tracker state: %d records, %d of the trip, visit port %d", t.log.n, s.TripRecords, s.VisitPort)
	}
	t.log.ref = d.ref
	s.derived, s.validated = t, true
	return nil
}

// SetState restores previously exported state. s must come from State or
// have passed Validate.
func (t *TripTracker) SetState(s TrackerState) {
	if !s.validated {
		panic("pipeline: SetState of a tracker state that has not passed Validate")
	}
	r := s.derived
	r.portIdx, r.minRecords = t.portIdx, t.minRecords
	r.lastPort, r.origin, r.tripN, r.visitPort = s.LastPort, s.Origin, s.TripRecords, s.VisitPort
	r.log.buf = s.Log[:len(s.Log):len(s.Log)]
	*t = r
}

// stops reports whether r is a stop: a near-zero speed fix.
func stops(r model.PositionRecord) bool {
	return !math.IsNaN(r.SOG) && r.SOG <= CallStopSpeedKnots
}

// isCall reports whether the buffered visit is an actual port call: a
// near-zero-speed fix, or a dwell of at least CallMinDwellSeconds.
func (t *TripTracker) isCall() bool {
	return t.visitPort != model.NoPort && (t.visitStop || t.visitLast-t.visitFirst >= CallMinDwellSeconds)
}

// decode returns the log's first n records, which take its first nbytes
// bytes.
func (t *TripTracker) decode(n, nbytes int) []model.PositionRecord {
	recs, err := decodeRecordLog(make([]model.PositionRecord, 0, n), t.log.buf[:nbytes])
	if err != nil || len(recs) != n {
		panic(fmt.Sprintf("pipeline: trip tracker log: %d of %d records, %v", len(recs), n, err))
	}
	return recs
}

// closeTrip finishes the open trip at the given destination, appending it
// to out when it qualifies (a loop back into the origin is not a trip),
// and starts a new log.
func (t *TripTracker) closeTrip(dest model.PortID, out []Trip) []Trip {
	if t.tripN > 0 && dest != t.origin && t.tripN >= t.minRecords {
		recs := t.decode(t.tripN, t.tripBytes)
		out = append(out, Trip{
			ID:         tripID(recs[0].MMSI, recs[0].Time),
			Origin:     t.origin,
			Dest:       dest,
			DepartTime: recs[0].Time,
			ArriveTime: recs[len(recs)-1].Time,
			Records:    recs,
		})
	}
	t.log = recordLog{}
	t.tripN, t.tripBytes, t.origin = 0, 0, model.NoPort
	return out
}

// endVisit resolves the buffered geofence visit: a call closes the trip; a
// transit pass folds the visit records back into the ongoing trip.
func (t *TripTracker) endVisit(out []Trip) []Trip {
	if t.visitPort == model.NoPort {
		return out
	}
	switch {
	case t.isCall():
		out = t.closeTrip(t.visitPort, out)
		t.lastPort = t.visitPort
	case t.tripN > 0:
		t.tripN, t.tripBytes = t.log.n, len(t.log.buf)
	default:
		t.log = recordLog{}
	}
	t.visitPort = model.NoPort
	return out
}

// Push consumes one cleaned record and returns any trips it completes
// (at most one).
func (t *TripTracker) Push(r model.PositionRecord) []Trip {
	var out []Trip
	port, inPort := t.portIdx.PortAt(r.Pos)
	if inPort {
		if t.visitPort != model.NoPort && port != t.visitPort {
			// Drifted into an adjacent overlapping fence: treat as a new
			// visit.
			out = t.endVisit(out)
		}
		if t.visitPort == model.NoPort {
			t.visitPort, t.visitFirst, t.visitStop = port, r.Time, false
		}
		t.visitLast = r.Time
		t.visitStop = t.visitStop || stops(r)
		t.log.append(r)
		return out
	}
	out = t.endVisit(out)
	if t.tripN == 0 {
		if t.lastPort == model.NoPort {
			return out // no known origin: excluded
		}
		t.origin = t.lastPort
	}
	t.log.append(r)
	t.tripN, t.tripBytes = t.log.n, len(t.log.buf)
	return out
}

// Flush resolves end-of-stream state: a final in-fence visit that
// qualifies as a call still completes the trip, exactly as the batch
// extractor does at dataset end. An unfinished trip (vessel still at sea)
// is excluded. The tracker remains usable afterwards, the visit still
// buffered.
func (t *TripTracker) Flush() []Trip {
	if !t.isCall() {
		return nil
	}
	visit := t.decode(t.log.n, len(t.log.buf))[t.tripN:]
	out := t.closeTrip(t.visitPort, nil)
	t.lastPort = t.visitPort
	for _, r := range visit {
		t.log.append(r)
	}
	return out
}

// EmitTrip projects a completed trip's records onto the grid at the given
// resolution and calls emit once per enabled grouping set per record,
// including the forward cell transition (§3.3.4). Both the batch reduce
// and the live ingest accumulate through this function.
func EmitTrip(trip Trip, vt model.VesselType, resolution int, sets []inventory.GroupSet, emit func(inventory.GroupKey, inventory.Observation)) {
	n := len(trip.Records)
	cells := make([]hexgrid.Cell, n)
	for i, r := range trip.Records {
		cells[i] = hexgrid.LatLngToCell(r.Pos, resolution)
	}
	for i, r := range trip.Records {
		// The transition target is the next distinct cell within the trip,
		// preserving message order (§3.3.4).
		next := hexgrid.InvalidCell
		for j := i + 1; j < n; j++ {
			if cells[j] != cells[i] {
				next = cells[j]
				break
			}
		}
		obs := inventory.Observation{
			Rec: model.TripRecord{
				PositionRecord: r,
				VType:          vt,
				TripID:         trip.ID,
				Origin:         trip.Origin,
				Dest:           trip.Dest,
				DepartTime:     trip.DepartTime,
				ArriveTime:     trip.ArriveTime,
			},
			NextCell: next,
		}
		for _, set := range sets {
			emit(inventory.NewGroupKey(set, cells[i], vt, trip.Origin, trip.Dest), obs)
		}
	}
}
