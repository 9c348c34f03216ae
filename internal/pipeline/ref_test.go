package pipeline

import (
	"fmt"
	"sort"
	"testing"

	"github.com/patternsoflife/pol/internal/dataflow"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/sim"
)

// refPair is a keyed row of the reference reduce.
type refPair[K comparable, V any] struct {
	key K
	val V
}

// refMix64 is the vessel hash the reference partitions by, written out
// independently of VesselBucket.
func refMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// refRun is the batch build as it was before each vessel partition folded
// into its own inventory, kept as the oracle of the partition fold. The
// input partitions are bucketed by vessel hash and concatenated per bucket
// in input order; each vessel partition emits (group key, observation)
// pairs and combines them map-side into one summary per key; the partials
// are shuffled by group-key hash into parts buckets, each bucket merging a
// key's partials in partition order; and the merged summaries are Put into
// the result. It runs serially: every step's order is fixed by partition
// index, which is all the parallel version's result depended on.
func refRun(input [][]model.PositionRecord, static map[uint32]model.VesselInfo, portIdx *ports.Index, opt Options, parts int) (*inventory.Inventory, Stats) {
	opt = opt.withDefaults()
	byVessel := make([][]model.PositionRecord, parts)
	for _, in := range input {
		for _, r := range in {
			b := refMix64(uint64(r.MMSI)) % uint64(parts)
			byVessel[b] = append(byVessel[b], r)
		}
	}
	var counters flowCounters
	var observations int64
	partials := make([][]refPair[inventory.GroupKey, *inventory.CellSummary], parts)
	for p, rows := range byVessel {
		pairs := refProcessPartition(rows, static, portIdx, opt, &counters)
		observations += int64(len(pairs))
		acc := make(map[inventory.GroupKey]*inventory.CellSummary, len(pairs)/2+1)
		for _, kv := range pairs {
			a, ok := acc[kv.key]
			if !ok {
				a = inventory.NewCellSummary()
				acc[kv.key] = a
			}
			a.Add(kv.val)
		}
		for k, a := range acc {
			partials[p] = append(partials[p], refPair[inventory.GroupKey, *inventory.CellSummary]{k, a})
		}
	}
	buckets := make([][]refPair[inventory.GroupKey, *inventory.CellSummary], parts)
	for _, partial := range partials {
		for _, kv := range partial {
			b := kv.key.Hash64() % uint64(parts)
			buckets[b] = append(buckets[b], kv)
		}
	}
	inv := inventory.New(inventory.BuildInfo{Resolution: opt.Resolution})
	for _, bucket := range buckets {
		acc := make(map[inventory.GroupKey]*inventory.CellSummary, len(bucket))
		for _, kv := range bucket {
			if cur, ok := acc[kv.key]; ok {
				cur.Merge(kv.val)
			} else {
				acc[kv.key] = kv.val
			}
		}
		for k, s := range acc {
			inv.Put(k, s)
		}
	}
	stats := Stats{
		RawRecords:      counters.raw.Load(),
		ValidRecords:    counters.valid.Load(),
		FeasibleRecords: counters.feasible.Load(),
		CommercialOnly:  counters.commercial.Load(),
		TripRecords:     counters.tripRecords.Load(),
		Trips:           counters.trips.Load(),
		Observations:    observations,
		Groups:          int64(inv.Len()),
	}
	info := inv.Info()
	info.RawRecords = stats.RawRecords
	info.UsedRecords = stats.TripRecords
	inv.SetInfo(info)
	return inv, stats
}

// refProcessPartition is the reference's per-partition step: the same
// per-vessel cleaning, trip extraction and projection, emitting pairs.
func refProcessPartition(rows []model.PositionRecord, static map[uint32]model.VesselInfo, portIdx *ports.Index, opt Options, counters *flowCounters) []refPair[inventory.GroupKey, inventory.Observation] {
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
	var out []refPair[inventory.GroupKey, inventory.Observation]
	for _, mmsi := range mmsis {
		recs := perVessel[mmsi]
		info, ok := static[mmsi]
		if !ok || !info.IsCommercial() {
			continue
		}
		cleaned, valid := cleanVesselCounted(recs, 50)
		counters.commercial.Add(int64(len(recs)))
		counters.valid.Add(valid)
		counters.feasible.Add(int64(len(cleaned)))
		trips := ExtractTrips(cleaned, portIdx, 2)
		counters.trips.Add(int64(len(trips)))
		for _, trip := range trips {
			counters.tripRecords.Add(int64(len(trip.Records)))
			EmitTrip(trip, info.Type, opt.Resolution, opt.GroupSets, func(k inventory.GroupKey, o inventory.Observation) {
				out = append(out, refPair[inventory.GroupKey, inventory.Observation]{k, o})
			})
		}
	}
	return out
}

// TestPartitionFoldEqualsReference holds Run's partition fold to the
// reference reduce bit for bit — every summary and every Stats counter —
// over three simulated fleets, both paper resolutions and five partition
// counts, with the input laid out one partition per vessel and as five
// chunks that split vessels across input partitions.
func TestPartitionFoldEqualsReference(t *testing.T) {
	gaz := ports.Default()
	idx := ports.NewIndex(gaz, ports.IndexResolution)
	fleets := []sim.Config{
		{Vessels: 10, Days: 14, Seed: 3, NoiseRate: 0.01},
		{Vessels: 8, Days: 12, Seed: 17},
		{Vessels: 12, Days: 10, Seed: 29, NoiseRate: 0.02},
	}
	for fi, cfg := range fleets {
		s, err := sim.New(cfg, gaz)
		if err != nil {
			t.Fatal(err)
		}
		static := s.Fleet().StaticIndex()
		tracks := make([][]model.PositionRecord, cfg.Vessels)
		var all []model.PositionRecord
		for i := range tracks {
			tracks[i], _ = s.VesselTrack(i)
			all = append(all, tracks[i]...)
		}
		chunks := make([][]model.PositionRecord, 5)
		for c := range chunks {
			chunks[c] = all[c*len(all)/5 : (c+1)*len(all)/5]
		}
		for _, res := range []int{6, 7} {
			for _, parts := range []int{1, 2, 3, 4, 8} {
				input := tracks
				if (fi+parts)%2 == 1 {
					input = chunks
				}
				t.Run(fmt.Sprintf("fleet%d/res%d/parts%d", fi, res, parts), func(t *testing.T) {
					ctx := dataflow.NewContext(3)
					records := dataflow.Generate(ctx, len(input), func(i int) []model.PositionRecord { return input[i] })
					opt := Options{Resolution: res, Partitions: parts}
					got, err := Run(records, static, idx, opt)
					if err != nil {
						t.Fatal(err)
					}
					want, wantStats := refRun(input, static, idx, opt, parts)
					if !inventory.Equal(got.Inventory, want) {
						t.Error("inventory differs from the reference reduce")
					}
					gotStats := got.Stats
					gotStats.Elapsed = 0
					if gotStats != wantStats {
						t.Errorf("stats %s, reference %s", gotStats, wantStats)
					}
					if gi, wi := got.Inventory.Info(), want.Info(); gi.RawRecords != wi.RawRecords || gi.UsedRecords != wi.UsedRecords {
						t.Errorf("build info %+v, reference %+v", gi, wi)
					}
					if wantStats.Groups == 0 {
						t.Error("degenerate fleet: no groups")
					}
				})
			}
		}
	}
}

// TestVesselBucketDeterministicAndSpread pins the one vessel hash: the
// same MMSI always lands in the same partition, and sequential MMSIs spread
// evenly.
func TestVesselBucketDeterministicAndSpread(t *testing.T) {
	if VesselBucket(227000001, 8) != VesselBucket(227000001, 8) {
		t.Error("vessel bucket must be deterministic")
	}
	const n, buckets = 10000, 16
	var counts [buckets]int
	for i := 0; i < n; i++ {
		mmsi := uint32(200000000 + i)
		b := VesselBucket(mmsi, buckets)
		if uint64(b) != refMix64(uint64(mmsi))%buckets {
			t.Fatalf("MMSI %d: bucket %d, the reference hash says %d", mmsi, b, refMix64(uint64(mmsi))%buckets)
		}
		counts[b]++
	}
	for b, c := range counts {
		if c < n/buckets/2 || c > n/buckets*2 {
			t.Errorf("bucket %d has %d of %d", b, c, n)
		}
	}
}
