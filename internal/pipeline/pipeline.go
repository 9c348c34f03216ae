// Package pipeline implements the paper's multi-step methodology (Figures 2
// and 3): data cleaning and preprocessing, trip-semantics extraction via
// port geofencing, feature enrichment (ETO/ATA), projection onto the
// hexagonal spatial index, and grouping-set feature extraction into the
// global inventory.
//
// The records are partitioned by vessel identifier (§3.3.1); each vessel
// partition cleans, extracts trips, projects them and folds the
// observations into its own inventory, and the partials merge in partition
// order (§3.3.4's reduce). The inventory's key-hash shards are the reduce
// partitions, so the paper's re-partitioning by group identifier lives in
// the structure that serves the result.
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
	// Partitions is the number of vessel partitions (default: context
	// parallelism).
	Partitions int
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
	return o
}

const (
	// MaxSpeedKnots is the infeasible-transition threshold (§3.3.1).
	MaxSpeedKnots = 50
	// MinTripRecords drops trips with fewer trip records than this: a trip
	// needs at least a departure and another fix.
	MinTripRecords = 2
)

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

	// Step 1 (§3.3.1): partition by vessel identifier. Step 2: per-vessel
	// cleaning, trip extraction, enrichment and projection, all within the
	// vessel partition, which folds its observations into its own inventory
	// (§3.3.4's map-side combine) exactly as the live engine folds a trip.
	var counters flowCounters
	partials := dataflow.MapPartitions(ByVessel(records, parts), "clean-trips-project",
		func(_ int, rows []model.PositionRecord) []*inventory.Inventory {
			return []*inventory.Inventory{processPartition(rows, static, portIdx, opt, &counters)}
		})

	// The graph is lazy: this Collect executes the shuffle, cleaning, trip
	// extraction and projection in one go. It is the run's only action: the
	// input is evaluated once, and the raw count is taken where the rows
	// arrive.
	_, execSpan := obs.StartSpanCtx(ctx.Std(), opt.Tracer, opt.Obs, "pipeline_execute")
	folded, err := dataflow.Collect(partials)
	if err != nil {
		return nil, err
	}
	execSpan.End()

	// Step 3 (§3.3.4): the reduce. The partials merge in ascending
	// partition order with Put's adopt-or-merge, so each group's summaries
	// combine in one fixed order whatever the worker count. Put into an
	// empty inventory adopts every summary, so the first partial is the
	// result's start as it stands.
	t0 := time.Now()
	inv := folded[0]
	rows := int64(inv.Len())
	for _, p := range folded[1:] {
		rows += int64(p.Len())
		p.Each(func(k inventory.GroupKey, s *inventory.CellSummary) bool {
			inv.Put(k, s)
			return true
		})
	}
	m := ctx.Metrics()
	m.Record("feature-extraction.merge", rows, int64(inv.Len()), time.Since(t0))

	stats := Stats{
		RawRecords:      counters.raw.Load(),
		ValidRecords:    counters.valid.Load(),
		FeasibleRecords: counters.feasible.Load(),
		CommercialOnly:  counters.commercial.Load(),
		TripRecords:     counters.tripRecords.Load(),
		Trips:           counters.trips.Load(),
		Observations:    counters.observations.Load(),
		Groups:          int64(inv.Len()),
		Elapsed:         time.Since(start),
	}

	inv.SetInfo(inventory.BuildInfo{
		Resolution:  opt.Resolution,
		RawRecords:  stats.RawRecords,
		UsedRecords: stats.TripRecords,
		BuiltUnix:   time.Now().Unix(),
		Description: opt.Description,
	})

	// Surface the per-stage busy times (shuffle/clean/merge) as duration
	// metrics, not just record counts.
	m.PublishTo(opt.Obs)

	return &Result{Inventory: inv, Stats: stats}, nil
}

// ByVessel repartitions records into parts partitions by vessel, each
// MMSI to partition VesselBucket(mmsi, parts) — the distributed build's
// bucketing too, which is why a cluster build equals a local one.
func ByVessel(records *dataflow.Dataset[model.PositionRecord], parts int) *dataflow.Dataset[model.PositionRecord] {
	return dataflow.Repartition(records, "shuffle-by-vessel", parts, func(r model.PositionRecord) int {
		return VesselBucket(r.MMSI, parts)
	})
}

// VesselBucket maps an MMSI to one of n vessel partitions through the
// splitmix64 finalizer, deterministically across runs and processes.
func VesselBucket(mmsi uint32, n int) int {
	x := uint64(mmsi) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int((x ^ (x >> 31)) % uint64(n))
}

// flowCounters accumulates per-stage record counts across concurrent
// partition tasks.
type flowCounters struct {
	raw          atomic.Int64 // entered the pipeline (every row of every vessel partition)
	valid        atomic.Int64 // passed range validation and deduplication
	feasible     atomic.Int64 // passed the 50-knot transition filter
	commercial   atomic.Int64 // belonged to commercial vessels
	tripRecords  atomic.Int64 // annotated with trip semantics
	trips        atomic.Int64 // complete trips
	observations atomic.Int64 // grouping-set observations folded
}

// processPartition runs cleaning, trip extraction, enrichment and
// projection for every vessel in one partition and folds the observations
// into the partition's own inventory.
func processPartition(rows []model.PositionRecord, static map[uint32]model.VesselInfo, portIdx *ports.Index, opt Options, counters *flowCounters) *inventory.Inventory {
	// Group the partition's rows by vessel, then process vessels in
	// ascending MMSI order: several summary statistics (Welford moments,
	// circular means, t-digests) are order-sensitive in their low bits, so
	// a map-ordered walk would make repeated builds of the same input
	// differ. Sorting pins one canonical fold order per partition.
	counters.raw.Add(int64(len(rows)))
	perVessel := make(map[uint32][]model.PositionRecord)
	for _, r := range rows {
		perVessel[r.MMSI] = append(perVessel[r.MMSI], r)
	}
	mmsis := make([]uint32, 0, len(perVessel))
	for mmsi := range perVessel {
		mmsis = append(mmsis, mmsi)
	}
	sort.Slice(mmsis, func(i, j int) bool { return mmsis[i] < mmsis[j] })
	inv := inventory.New(inventory.BuildInfo{Resolution: opt.Resolution})
	var observations int64
	observe := func(key inventory.GroupKey, o inventory.Observation) {
		inv.Observe(key, o)
		observations++
	}
	for _, mmsi := range mmsis {
		recs := perVessel[mmsi]
		info, ok := static[mmsi]
		if !ok || !info.IsCommercial() {
			continue // §3.3.1: only the commercial fleet
		}
		commercial := int64(len(recs))
		cleaned, valid := cleanVesselCounted(recs, MaxSpeedKnots)
		counters.commercial.Add(commercial)
		counters.valid.Add(valid)
		counters.feasible.Add(int64(len(cleaned)))
		trips := ExtractTrips(cleaned, portIdx, MinTripRecords)
		counters.trips.Add(int64(len(trips)))
		for _, trip := range trips {
			counters.tripRecords.Add(int64(len(trip.Records)))
			EmitTrip(trip, info.Type, opt.Resolution, opt.GroupSets, observe)
		}
	}
	counters.observations.Add(observations)
	return inv
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
