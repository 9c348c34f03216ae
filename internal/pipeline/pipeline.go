// Package pipeline implements the paper's multi-step methodology (Figures 2
// and 3): data cleaning and preprocessing, trip-semantics extraction via
// port geofencing, feature enrichment (ETO/ATA), projection onto the
// hexagonal spatial index, and grouping-set feature extraction into the
// global inventory.
//
// Each step is a transformation over dataflow datasets, partitioned by
// vessel identifier until feature extraction re-shuffles by group
// identifier — exactly the partitioning strategy the paper describes
// (§3.3.1, §3.3.4).
package pipeline

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"github.com/patternsoflife/pol/internal/dataflow"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/obs"
	"github.com/patternsoflife/pol/internal/obs/trace"
	"github.com/patternsoflife/pol/internal/ports"
)

// Options configures a pipeline run.
type Options struct {
	// Resolution is the hexgrid resolution of the inventory (paper: 6, 7).
	Resolution int
	// GroupSets selects which grouping sets to build (default: all three).
	GroupSets []inventory.GroupSet
	// Partitions is the shuffle width (default: context parallelism).
	Partitions int
	// MaxSpeedKnots is the infeasible-transition threshold (§3.3.1;
	// default 50).
	MaxSpeedKnots float64
	// MinTripRecords drops trips with fewer trip records than this
	// (default 2 — a trip needs at least a departure and another fix).
	MinTripRecords int
	// Description is stored in the inventory build info.
	Description string
	// Obs, when non-nil, receives span timings for the run's macro phases
	// and the per-stage busy durations of the dataflow graph, all under
	// the shared pipeline stage histogram family.
	Obs *obs.Registry
	// Tracer, when non-nil, additionally records the macro phases as
	// children of the ambient trace span carried by the dataset context's
	// Std() — so a worker task's trace shows the pipeline phases inside
	// it. Without an ambient span this is a no-op.
	Tracer *trace.Tracer
}

func (o Options) withDefaults() Options {
	if o.Resolution <= 0 {
		o.Resolution = 6
	}
	if len(o.GroupSets) == 0 {
		o.GroupSets = inventory.AllGroupSets
	}
	if o.MaxSpeedKnots <= 0 {
		o.MaxSpeedKnots = 50
	}
	if o.MinTripRecords <= 0 {
		o.MinTripRecords = 2
	}
	return o
}

// Stats reports record flow through the pipeline stages — the numbers
// behind the paper's Table 1 → Table 4 reduction.
type Stats struct {
	RawRecords      int64 // records entering the pipeline
	ValidRecords    int64 // after range validation and deduplication
	FeasibleRecords int64 // after the 50-knot transition filter
	CommercialOnly  int64 // after the static-info commercial filter
	TripRecords     int64 // records annotated with trip semantics
	Trips           int64 // distinct trips extracted
	Observations    int64 // grouping-set observations emitted
	Groups          int64 // groups in the final inventory
	Elapsed         time.Duration
}

// String renders the stats as a small report.
func (s Stats) String() string {
	return fmt.Sprintf(
		"raw=%d valid=%d feasible=%d commercial=%d trip-annotated=%d trips=%d observations=%d groups=%d elapsed=%s",
		s.RawRecords, s.ValidRecords, s.FeasibleRecords, s.CommercialOnly,
		s.TripRecords, s.Trips, s.Observations, s.Groups, s.Elapsed)
}

// Result is the pipeline output: the built inventory plus flow statistics.
type Result struct {
	Inventory *inventory.Inventory
	Stats     Stats
}

// Run executes the full methodology over a dataset of positional reports.
// static is the vessel static inventory keyed by MMSI; portIdx is the
// compiled geofence index.
func Run(records *dataflow.Dataset[model.PositionRecord], static map[uint32]model.VesselInfo, portIdx *ports.Index, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	start := time.Now()
	ctx := records.Context()
	parts := opt.Partitions
	if parts <= 0 {
		parts = ctx.Parallelism()
	}

	// A build launched on an already-cancelled context (worker shutdown,
	// coordinator abort) must not start evaluating stages at all; mid-run
	// cancellation is observed by every dataflow action below.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}

	// Step 1 (§3.3.1): partition by vessel identifier.
	keyed := dataflow.KeyBy(records, "partition-by-vessel", func(r model.PositionRecord) uint32 { return r.MMSI })
	byVessel := dataflow.RepartitionByKey(keyed, "shuffle-by-vessel", parts)

	// Step 2: per-vessel cleaning — range validation, time ordering,
	// deduplication, infeasible-transition filtering, commercial-fleet
	// annotation — then trip extraction, enrichment and projection, all
	// within the vessel partition (no further shuffle needed until the
	// feature reduce).
	var counters flowCounters
	observations := dataflow.MapPartitions(byVessel, "clean-trips-project",
		func(_ int, rows []dataflow.Pair[uint32, model.PositionRecord]) []dataflow.Pair[inventory.GroupKey, inventory.Observation] {
			return processPartition(rows, static, portIdx, opt, &counters)
		})

	// Step 3 (§3.3.4): grouping-set aggregation — the MapReduce phase. The
	// shuffle hashes through the typed method expression so no group key is
	// boxed on the per-record path.
	aggregated := dataflow.AggregateByKeyHashed(observations, "feature-extraction", parts,
		inventory.GroupKey.Hash64,
		inventory.NewCellSummary,
		func(acc *inventory.CellSummary, o inventory.Observation) *inventory.CellSummary {
			acc.Add(o)
			return acc
		},
		func(a, b *inventory.CellSummary) *inventory.CellSummary {
			a.Merge(b)
			return a
		},
	)

	inv := inventory.New(inventory.BuildInfo{
		Resolution:  opt.Resolution,
		BuiltUnix:   time.Now().Unix(),
		Description: opt.Description,
	})
	// The graph is lazy: this Collect executes cleaning, trip extraction,
	// projection and the feature reduce in one go, so the span covers the
	// whole §3.3 dataflow. It is the run's only action: the input is
	// evaluated once, and the raw count is taken where the rows arrive.
	_, execSpan := obs.StartSpanCtx(ctx.Std(), opt.Tracer, opt.Obs, "pipeline_execute")
	pairs, err := dataflow.Collect(aggregated)
	if err != nil {
		return nil, err
	}
	execSpan.End()
	for _, p := range pairs {
		inv.Put(p.Key, p.Value)
	}

	// Derive flow stats from the engine metrics and stage counters.
	m := ctx.Metrics()
	stats := Stats{
		RawRecords:      counters.raw.Load(),
		ValidRecords:    counters.valid.Load(),
		FeasibleRecords: counters.feasible.Load(),
		CommercialOnly:  counters.commercial.Load(),
		TripRecords:     counters.tripRecords.Load(),
		Trips:           counters.trips.Load(),
		Observations:    m.Stage("clean-trips-project").RecordsOut,
		Groups:          int64(inv.Len()),
		Elapsed:         time.Since(start),
	}

	info := inv.Info()
	info.RawRecords = stats.RawRecords
	info.UsedRecords = stats.TripRecords
	inv.SetInfo(info)

	// Surface the per-stage busy times (clean/extract/shuffle/reduce) as
	// duration metrics, not just record counts.
	m.PublishTo(opt.Obs)

	return &Result{Inventory: inv, Stats: stats}, nil
}

// flowCounters accumulates per-stage record counts across concurrent
// partition tasks.
type flowCounters struct {
	raw         atomic.Int64 // entered the pipeline (every row of every vessel partition)
	valid       atomic.Int64 // passed range validation and deduplication
	feasible    atomic.Int64 // passed the 50-knot transition filter
	commercial  atomic.Int64 // belonged to commercial vessels
	tripRecords atomic.Int64 // annotated with trip semantics
	trips       atomic.Int64 // complete trips
}

// processPartition runs cleaning, trip extraction, enrichment, projection
// and observation emission for every vessel in one partition.
func processPartition(rows []dataflow.Pair[uint32, model.PositionRecord], static map[uint32]model.VesselInfo, portIdx *ports.Index, opt Options, counters *flowCounters) []dataflow.Pair[inventory.GroupKey, inventory.Observation] {
	// Group the partition's rows by vessel, then process vessels in
	// ascending MMSI order: several summary statistics (Welford moments,
	// circular means, t-digests) are order-sensitive in their low bits, so
	// a map-ordered walk would make repeated builds of the same input
	// differ. Sorting pins one canonical fold order per partition.
	counters.raw.Add(int64(len(rows)))
	perVessel := make(map[uint32][]model.PositionRecord)
	for _, p := range rows {
		perVessel[p.Key] = append(perVessel[p.Key], p.Value)
	}
	mmsis := make([]uint32, 0, len(perVessel))
	for mmsi := range perVessel {
		mmsis = append(mmsis, mmsi)
	}
	sort.Slice(mmsis, func(i, j int) bool { return mmsis[i] < mmsis[j] })
	var out []dataflow.Pair[inventory.GroupKey, inventory.Observation]
	for _, mmsi := range mmsis {
		recs := perVessel[mmsi]
		info, ok := static[mmsi]
		if !ok || !info.IsCommercial() {
			continue // §3.3.1: only the commercial fleet
		}
		commercial := int64(len(recs))
		cleaned, valid := cleanVesselCounted(recs, opt.MaxSpeedKnots)
		counters.commercial.Add(commercial)
		counters.valid.Add(valid)
		counters.feasible.Add(int64(len(cleaned)))
		trips := ExtractTrips(cleaned, portIdx, opt.MinTripRecords)
		counters.trips.Add(int64(len(trips)))
		for _, trip := range trips {
			counters.tripRecords.Add(int64(len(trip.Records)))
			emitTrip(trip, info.Type, opt, &out)
		}
	}
	return out
}

// CleanVessel applies the paper's §3.3.1 cleaning to one vessel's reports:
// range validation, sorting by timestamp, duplicate-timestamp removal, and
// the infeasible-transition (50-knot) filter. Exposed for direct use and
// focused tests.
func CleanVessel(recs []model.PositionRecord, maxSpeedKnots float64) []model.PositionRecord {
	out, _ := cleanVesselCounted(recs, maxSpeedKnots)
	return out
}

// cleanVesselCounted is CleanVessel plus the count of records that survived
// range validation and deduplication (before the speed filter).
func cleanVesselCounted(recs []model.PositionRecord, maxSpeedKnots float64) (cleaned []model.PositionRecord, validCount int64) {
	valid := make([]model.PositionRecord, 0, len(recs))
	for _, r := range recs {
		if !validRanges(r) {
			continue
		}
		valid = append(valid, r)
	}
	sort.SliceStable(valid, func(i, j int) bool { return valid[i].Time < valid[j].Time })

	// Deduplication and the speed filter run through the shared online
	// state machine: the batch path is "sort, then stream". The valid count
	// (after range validation and deduplication, before the speed filter)
	// matches the paper's "after cleaning" notion.
	c := NewOnlineCleaner(maxSpeedKnots)
	out := valid[:0]
	for _, r := range valid {
		switch c.Accept(r) {
		case RejectNone:
			out = append(out, r)
			validCount++
		case RejectInfeasible:
			validCount++ // survived dedup; dropped by the speed filter only
		}
	}
	return out, validCount
}

// validRanges checks the protocol value ranges of §3.3.1.
func validRanges(r model.PositionRecord) bool {
	if !r.Pos.Valid() {
		return false
	}
	if math.IsNaN(r.SOG) || r.SOG < 0 || r.SOG > 102.2 {
		return false
	}
	if math.IsNaN(r.COG) || r.COG < 0 || r.COG >= 360 {
		return false
	}
	if !math.IsNaN(r.Heading) && (r.Heading < 0 || r.Heading >= 360) {
		return false
	}
	if !r.Status.Valid() {
		return false
	}
	return true
}

// Trip is one extracted trip: ordered records strictly between two port
// stops, with origin/destination annotation (§3.3.2).
type Trip struct {
	ID         uint64
	Origin     model.PortID
	Dest       model.PortID
	DepartTime int64 // first record outside the origin geofence
	ArriveTime int64 // last record outside the destination geofence
	Records    []model.PositionRecord
}

// Port-call detection thresholds: a geofence visit is a port call
// (reconstructing the paper's "port stops") only when the vessel actually
// stops — otherwise it is a transit pass, as happens constantly at
// chokepoint ports like Port Said or Singapore whose areas the sea lanes
// cross.
const (
	// CallStopSpeedKnots: any in-fence record at or below this speed marks
	// a stop immediately.
	CallStopSpeedKnots = 1.0
	// CallMinDwellSeconds: an in-fence visit at least this long is a call
	// even without a near-zero speed fix.
	CallMinDwellSeconds = 3 * 3600
)

// ExtractTrips segments one vessel's cleaned, time-ordered records into
// trips using port geofencing (§3.3.2). All records of a vessel between two
// consecutive port calls form one trip; a call requires an actual stop
// (fence transits do not split trips). Berth records and records that
// cannot be attributed to a complete port-to-port trip are excluded, as in
// the paper (Figure 2.b). The batch path streams through the shared
// TripTracker state machine so the live ingest behaves identically.
func ExtractTrips(recs []model.PositionRecord, portIdx *ports.Index, minRecords int) []Trip {
	tr := NewTripTracker(portIdx, minRecords)
	var trips []Trip
	for _, r := range recs {
		trips = append(trips, tr.Push(r)...)
	}
	// Stream end: a final in-fence visit may still complete the trip; an
	// unfinished trip (vessel still at sea at dataset end) is excluded.
	return append(trips, tr.Flush()...)
}

// tripID builds a unique trip identifier from the vessel and departure
// time.
func tripID(mmsi uint32, departTime int64) uint64 {
	return uint64(mmsi)<<32 ^ uint64(departTime)
}

// emitTrip projects a trip's records onto the grid and emits one
// observation per enabled grouping set per record, including the forward
// cell transition (§3.3.4 "transitions" feature).
func emitTrip(trip Trip, vt model.VesselType, opt Options, out *[]dataflow.Pair[inventory.GroupKey, inventory.Observation]) {
	EmitTrip(trip, vt, opt.Resolution, opt.GroupSets, func(key inventory.GroupKey, obs inventory.Observation) {
		*out = append(*out, dataflow.Pair[inventory.GroupKey, inventory.Observation]{Key: key, Value: obs})
	})
}
