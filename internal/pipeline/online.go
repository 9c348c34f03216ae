// Online (incremental) forms of the paper's §3.3.1–§3.3.2 cleaning and
// trip-extraction stages, shared by the batch pipeline and the live
// ingestion subsystem (internal/ingest). The batch path sorts a vessel's
// records and feeds them through the same state machines, so a live stream
// delivered in per-vessel timestamp order converges to the batch result
// exactly.

package pipeline

import (
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
type TripTracker struct {
	portIdx    *ports.Index
	minRecords int

	lastPort model.PortID
	cur      *Trip
	// visit buffers the records of an in-progress geofence visit.
	visit     []model.PositionRecord
	visitPort model.PortID
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
func (t *TripTracker) Held() int {
	n := len(t.visit)
	if t.cur != nil {
		n += len(t.cur.Records)
	}
	return n
}

// TrackerState is the complete serializable state of a TripTracker: the
// last confirmed port call, the open trip (if any), and the buffered
// geofence visit. Checkpoints persist it so trips that straddle a restart
// still complete with their full record span.
type TrackerState struct {
	LastPort  model.PortID
	HasTrip   bool
	Trip      Trip // valid when HasTrip
	Visit     []model.PositionRecord
	VisitPort model.PortID
}

// State exports the tracker's mutable state. The returned slices alias
// the tracker's buffers; serialize before pushing more records.
func (t *TripTracker) State() TrackerState {
	s := TrackerState{LastPort: t.lastPort, Visit: t.visit, VisitPort: t.visitPort}
	if t.cur != nil {
		s.HasTrip = true
		s.Trip = *t.cur
	}
	return s
}

// SetState restores previously exported state.
func (t *TripTracker) SetState(s TrackerState) {
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
func (t *TripTracker) isCall() bool {
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
func (t *TripTracker) closeTrip(dest model.PortID, out []Trip) []Trip {
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
func (t *TripTracker) endVisit(out []Trip) []Trip {
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
func (t *TripTracker) Push(r model.PositionRecord) []Trip {
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
func (t *TripTracker) Flush() []Trip {
	var out []Trip
	if t.visitPort != model.NoPort && t.isCall() {
		out = t.closeTrip(t.visitPort, out)
		t.lastPort = t.visitPort
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
