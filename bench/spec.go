package main

import "time"

// Dataset and load constants. They are fixed here, never adapted at run
// time, so two commits are always driven by the same schedule.
const (
	// The base fleet is one internal/sim run at a fixed simulator seed; the
	// run seed then reorders vessels, shifts each track by whole hours and
	// draws the queries. Records, trips and groups are therefore the same
	// for every seed, which is what lets ten seeds agree within a few
	// percent (sim fleets of this size differ 2x in groups from seed to
	// seed): 83 303 reports, a 4.9 MB archive, 13 701 groups.
	baseSimSeed = 1
	baseVessels = 24
	baseDays    = 12

	// The live stream is the liveVessels lowest-MMSI vessels of the base
	// fleet (four of them complete a trip) cloned under fresh MMSIs, each
	// clone started 2.5 hours after the previous, thinned 1-in-liveThin and
	// merged by time: 434 096 reports in which a trip completes every 1 100
	// on average (rarely in the first and the last tenth), the rate
	// of a fleet liveClones times larger, without paying the simulator for
	// it. A third of the fleet keeps the live inventory near 4 000 groups,
	// so that a publish (which copies most shards after a trip) and a
	// checkpoint leave the child's cores about 40 % idle at these rates.
	liveVessels         = 8
	liveClones          = 96
	liveThin            = 6
	liveTick            = 250 * time.Millisecond
	liveCheckpointEvery = 16
	// A WAL poll reads its segment from the start, so the default 64 MiB
	// segment makes shipping quadratic in the stream; 1 MiB is what the
	// program's own replica benchmark uses.
	liveWALSegment = 1 << 20
	livePacedShare = 0.4  // of the stream at most, sent open loop at livePacedRate
	livePacedRate  = 8000 // reports/s; what lies between warm-up and paced phase is the burst
	liveQueryRate  = 200  // requests/s beside the paced phase

	// Open-loop rate of both serve workloads, so that they see the same
	// schedule: about 40 % of what serve-segment-cold and 23 % of what
	// serve-heap answer closed-loop on the 2-core reference box. Above a
	// quarter of its capacity the heap child's own collector, on its one
	// core, moves every percentile from run to run.
	serveRate = 1400

	closedShare  = 0.3  // of --seconds, closed loop; the rest is open loop
	setupRepeats = 3    // setup_s is the median of this many set-ups
	mixSize      = 4096 // distinct requests drawn per run, cycled through
	bodyCheckOne = 50   // compare one response body in this many
)

// Route shares of the query mix, in per cent.
var queryMix = []struct {
	route string
	share int
}{
	{"cell", 70}, {"destinations", 15}, {"eta", 10}, {"odcells", 5},
}

type workloadSpec struct {
	name, loop, why string
}

var workloads = []workloadSpec{
	{"archive-build", "batch",
		"the paper's job: archive to queryable segment in one process; decode/clean/trips/project/shuffle/reduce/write do all the work"},
	{"cluster-build", "batch",
		"same input and answer through coordinator, 2 workers, frames, gob, flate and task scheduling; a cluster-only fix moves this alone"},
	{"live-ingest", "closed then open",
		"the stream path: TCP feed, WAL, online clean/track, merge, publish, checkpoint, ship, replica apply, with reads beside the writes"},
	{"serve-heap", "closed then open",
		"query mix on a frozen heap snapshot: route, lookup and JSON encode dominate, no segment inflate; the control for segment changes"},
	{"serve-segment-cold", "closed then open",
		"same requests served from a segment whose 256 shard blocks are 4x the reader's cache, so three lookups in four inflate a shard"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

type metricSpec struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// Every end-to-end metric is defined on every workload; README.md
// ("End-to-end metrics") has the per-workload definition of each. No
// latency quantile above the median is among them: beside a live ingest one
// query in eight meets a merge, publish, checkpoint or collection, and on
// serve-heap the child's collector does the same on its one core, so over
// identical runs p75, p90, p95 and p99 moved by up to 2.5x, 1.7x, 1.8x and
// 2.8x. The tail is reported unbounded (info lines, net.query_tail_ms).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.25},
	{"stored_bytes_per_record", "B", "lower", 0.02},
}

// Per-layer metrics come from the traced run. Layer = package name. A
// metric reads 0 on a workload where its layer does no work.
var perLayer = []metricSpec{
	{name: "feed.decode_ns_per_record", unit: "ns", better: "lower"},
	{name: "feed.bad_lines", unit: "count", better: "lower"},
	{name: "feed.allocs_per_record", unit: "count", better: "lower"},

	{name: "pipeline.clean_ns_per_record", unit: "ns", better: "lower"},
	{name: "pipeline.trips_ns_per_record", unit: "ns", better: "lower"},
	{name: "pipeline.project_ns_per_obs", unit: "ns", better: "lower"},
	{name: "pipeline.records_in", unit: "count", better: "higher"},
	{name: "pipeline.observations_out", unit: "count", better: "higher"},
	{name: "pipeline.run_allocs_per_record", unit: "count", better: "lower"},
	{name: "pipeline.run_bytes_per_record", unit: "B", better: "lower"},
	{name: "pipeline.online_clean_ns_per_record", unit: "ns", better: "lower"},
	{name: "pipeline.online_track_ns_per_record", unit: "ns", better: "lower"},

	{name: "dataflow.vessel_shuffle_ns_per_record", unit: "ns", better: "lower"},
	{name: "dataflow.reduce_partial_ns_per_obs", unit: "ns", better: "lower"},
	{name: "dataflow.reduce_shuffle_ns_per_row", unit: "ns", better: "lower"},
	{name: "dataflow.reduce_merge_ns_per_row", unit: "ns", better: "lower"},
	{name: "dataflow.shuffled_records", unit: "count", better: "lower"},

	{name: "segment.write_ns_per_group", unit: "ns", better: "lower"},
	{name: "segment.bytes_per_group", unit: "B", better: "lower"},
	{name: "segment.open_us", unit: "us", better: "lower"},
	{name: "segment.get_ns_hit", unit: "ns", better: "lower"},
	{name: "segment.get_us_miss", unit: "us", better: "lower"},
	{name: "segment.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "segment.inflated_bytes_per_miss", unit: "B", better: "lower"},
	{name: "segment.pinned_mb", unit: "MB", better: "lower"},

	{name: "cluster.task_s_sum", unit: "s", better: "lower"},
	{name: "cluster.tasks", unit: "count", better: "lower"},
	{name: "cluster.retries", unit: "count", better: "lower"},
	{name: "cluster.ctl_bytes", unit: "B", better: "lower"},
	{name: "cluster.shuffle_bytes_raw", unit: "B", better: "lower"},
	{name: "cluster.shuffle_bytes_wire", unit: "B", better: "lower"},
	{name: "cluster.shuffle_frames", unit: "count", better: "lower"},
	{name: "cluster.overlap_reduces", unit: "count", better: "higher"},
	{name: "cluster.local_cpu_us_per_record", unit: "us", better: "lower"},
	{name: "cluster.overhead_frac", unit: "ratio", better: "lower"},

	{name: "ingest.accept_ns_per_record", unit: "ns", better: "lower"},
	{name: "ingest.submit_ns_per_record", unit: "ns", better: "lower"},
	{name: "ingest.loop_residual_ns_per_record", unit: "ns", better: "lower"},
	{name: "ingest.allocs_per_record", unit: "count", better: "lower"},
	{name: "ingest.bytes_per_record", unit: "B", better: "lower"},
	{name: "ingest.queue_depth_max", unit: "count", better: "lower"},
	{name: "ingest.journal_append_ns_per_record", unit: "ns", better: "lower"},
	{name: "ingest.journal_bytes_per_record", unit: "B", better: "lower"},
	{name: "ingest.journal_fsync_ms_p50", unit: "ms", better: "lower"},
	{name: "ingest.merge_ms_p50", unit: "ms", better: "lower"},
	{name: "ingest.publish_ms_p50", unit: "ms", better: "lower"},
	{name: "ingest.merges", unit: "count", better: "higher"},
	{name: "ingest.checkpoint_ms_p50", unit: "ms", better: "lower"},
	{name: "ingest.ckpt_bytes_per_gen", unit: "B", better: "lower"},
	{name: "ingest.checkpoints", unit: "count", better: "higher"},
	{name: "ingest.repl_wal_bytes_per_record", unit: "B", better: "lower"},

	{name: "inventory.observe_ns_per_obs", unit: "ns", better: "lower"},
	{name: "inventory.merge_ns_per_group", unit: "ns", better: "lower"},
	{name: "inventory.snapshot_us", unit: "us", better: "lower"},
	{name: "inventory.get_ns", unit: "ns", better: "lower"},
	{name: "inventory.odcells_us", unit: "us", better: "lower"},

	{name: "replica.bootstrap_ms", unit: "ms", better: "lower"},
	{name: "replica.apply_records_per_s", unit: "1/s", better: "higher"},
	{name: "replica.lag_seq_p99", unit: "count", better: "lower"},
	{name: "replica.freshness_p50_ms", unit: "ms", better: "lower"},
	{name: "replica.freshness_tail_ms", unit: "ms", better: "lower"},
	{name: "replica.freshness_samples", unit: "count", better: "higher"},

	{name: "api.handler_us_p50.cell", unit: "us", better: "lower"},
	{name: "api.handler_us_p50.destinations", unit: "us", better: "lower"},
	{name: "api.handler_us_p50.eta", unit: "us", better: "lower"},
	{name: "api.handler_us_p50.odcells", unit: "us", better: "lower"},
	{name: "api.handler_us_p50.info", unit: "us", better: "lower"},
	{name: "api.allocs_per_req.cell", unit: "count", better: "lower"},
	{name: "api.allocs_per_req.destinations", unit: "count", better: "lower"},
	{name: "api.allocs_per_req.eta", unit: "count", better: "lower"},
	{name: "api.allocs_per_req.odcells", unit: "count", better: "lower"},
	{name: "api.allocs_per_req.info", unit: "count", better: "lower"},
	{name: "api.resp_bytes_p50.cell", unit: "B", better: "lower"},
	{name: "api.resp_bytes_p50.destinations", unit: "B", better: "lower"},
	{name: "api.resp_bytes_p50.eta", unit: "B", better: "lower"},
	{name: "api.resp_bytes_p50.odcells", unit: "B", better: "lower"},
	{name: "api.resp_bytes_p50.info", unit: "B", better: "lower"},
	{name: "api.encode_residual_us.cell", unit: "us", better: "lower"},
	{name: "net.http_overhead_us_p50", unit: "us", better: "lower"},
	{name: "net.query_tail_ms", unit: "ms", better: "lower"},

	{name: "harness.traced_throughput_per_s", unit: "1/s", better: "higher"},
	{name: "harness.trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "harness.residual_frac", unit: "ratio", better: "lower"},
	{name: "harness.gen_late_p99_us", unit: "us", better: "lower"},
}
