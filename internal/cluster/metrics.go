package cluster

import "github.com/patternsoflife/pol/internal/obs"

// Cluster metric names (Prometheus conventions, pol_ namespace).
const (
	MetricTasks            = "pol_cluster_tasks_total"
	MetricTaskSeconds      = "pol_cluster_task_seconds"
	MetricHeartbeats       = "pol_cluster_heartbeats_total"
	MetricWorkers          = "pol_cluster_workers"
	MetricBytes            = "pol_cluster_bytes_total"
	MetricWorkerTasks      = "pol_cluster_worker_tasks_total"
	MetricWorkerHeartbeats = "pol_cluster_worker_heartbeats_total"

	// Shuffle instrumentation: bytes moved worker to worker per
	// direction, frame dispositions, payload compression, and the
	// phase-overlap gauges.
	MetricShuffleBytes   = "pol_cluster_shuffle_bytes_total"         // labels: path=peer, dir=in|out
	MetricShuffleFrames  = "pol_cluster_shuffle_frames_total"        // labels: event=sent|received|duplicate|rejected
	MetricShuffleErrors  = "pol_cluster_shuffle_errors_total"        // labels: kind=dial|write
	MetricShufflePayload = "pol_cluster_shuffle_payload_bytes_total" // labels: form=raw|compressed
	MetricShuffleRatio   = "pol_cluster_shuffle_compression_ratio"
	MetricPendingBuckets = "pol_cluster_shuffle_pending_buckets"
	MetricReduceInflight = "pol_cluster_reduce_inflight"
	MetricOverlapReduces = "pol_cluster_overlap_reduces_total"
	MetricReassigned     = "pol_cluster_bucket_reassigned_total"
)

// coordMetrics is the coordinator-side instrument set.
type coordMetrics struct {
	assigned    *obs.Counter
	completed   *obs.Counter
	retried     *obs.Counter
	duplicate   *obs.Counter
	failed      *obs.Counter
	heartbeats  *obs.Counter
	workers     *obs.Gauge
	bytesIn     *obs.Counter
	bytesOut    *obs.Counter
	taskSeconds *obs.Histogram

	// Peer-shuffle scheduling: reduces that completed while scans were
	// still running (the phase overlap the direct shuffle buys), and
	// bucket ownership reassignments after an owner died or stalled.
	overlapReduces *obs.Counter
	reassigned     *obs.Counter
}

func newCoordMetrics(reg *obs.Registry) *coordMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	reg.Help(MetricTasks, "Coordinator task scheduling events by outcome.")
	reg.Help(MetricTaskSeconds, "Wall time of completed tasks, assignment to result.")
	reg.Help(MetricHeartbeats, "Worker heartbeats received by the coordinator.")
	reg.Help(MetricWorkers, "Workers currently connected to the coordinator.")
	reg.Help(MetricBytes, "Protocol bytes through the coordinator by direction.")
	reg.Help(MetricOverlapReduces, "Peer-shuffle reduces completed while scans were still running.")
	reg.Help(MetricReassigned, "Shuffle bucket ownership reassignments after owner death or stall.")
	ev := func(event string) *obs.Counter {
		return reg.Counter(MetricTasks, obs.Labels{"event": event})
	}
	return &coordMetrics{
		assigned:       ev("assigned"),
		completed:      ev("completed"),
		retried:        ev("retried"),
		duplicate:      ev("duplicate"),
		failed:         ev("failed"),
		heartbeats:     reg.Counter(MetricHeartbeats, nil),
		workers:        reg.Gauge(MetricWorkers, nil),
		bytesIn:        reg.Counter(MetricBytes, obs.Labels{"dir": "in"}),
		bytesOut:       reg.Counter(MetricBytes, obs.Labels{"dir": "out"}),
		taskSeconds:    reg.Histogram(MetricTaskSeconds, nil),
		overlapReduces: reg.Counter(MetricOverlapReduces, nil),
		reassigned:     reg.Counter(MetricReassigned, nil),
	}
}

// workerMetrics is the worker-side instrument set.
type workerMetrics struct {
	tasksOK    *obs.Counter
	tasksErr   *obs.Counter
	heartbeats *obs.Counter
	bytesIn    *obs.Counter
	bytesOut   *obs.Counter

	// Shuffle bytes by direction; they move worker to worker and never
	// transit the coordinator connection.
	shufflePeerSent *obs.Counter
	shufflePeerRecv *obs.Counter

	// Peer frame dispositions and stream errors.
	peerFramesSent     *obs.Counter
	peerFramesRecv     *obs.Counter
	peerFramesDup      *obs.Counter
	peerFramesRejected *obs.Counter
	peerDialErrs       *obs.Counter
	peerWriteErrs      *obs.Counter

	// Payload bytes before and after flate, exposed as a ratio gauge.
	shuffleRawBytes  *obs.Counter
	shuffleCompBytes *obs.Counter

	// Phase overlap: buckets this worker owns but has not reduced yet,
	// and reduces currently folding.
	pendingBuckets *obs.Gauge
	reduceInflight *obs.Gauge
}

func newWorkerMetrics(reg *obs.Registry) *workerMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	reg.Help(MetricWorkerTasks, "Tasks executed by this worker by outcome.")
	reg.Help(MetricWorkerHeartbeats, "Heartbeats sent by this worker.")
	reg.Help(MetricShuffleBytes, "Shuffle bytes moved worker to worker, by direction.")
	reg.Help(MetricShuffleFrames, "Peer shuffle frames by disposition.")
	reg.Help(MetricShuffleErrors, "Peer shuffle stream errors by kind.")
	reg.Help(MetricShufflePayload, "Shuffle payload bytes before and after compression.")
	reg.Help(MetricShuffleRatio, "Shuffle payload compression ratio (raw/compressed).")
	reg.Help(MetricPendingBuckets, "Owned shuffle buckets not yet reduced.")
	reg.Help(MetricReduceInflight, "Bucket reduces currently executing.")
	m := &workerMetrics{
		tasksOK:    reg.Counter(MetricWorkerTasks, obs.Labels{"state": "ok"}),
		tasksErr:   reg.Counter(MetricWorkerTasks, obs.Labels{"state": "error"}),
		heartbeats: reg.Counter(MetricWorkerHeartbeats, nil),
		bytesIn:    reg.Counter(MetricBytes, obs.Labels{"dir": "in"}),
		bytesOut:   reg.Counter(MetricBytes, obs.Labels{"dir": "out"}),

		shufflePeerSent: reg.Counter(MetricShuffleBytes, obs.Labels{"path": "peer", "dir": "out"}),
		shufflePeerRecv: reg.Counter(MetricShuffleBytes, obs.Labels{"path": "peer", "dir": "in"}),

		peerFramesSent:     reg.Counter(MetricShuffleFrames, obs.Labels{"event": "sent"}),
		peerFramesRecv:     reg.Counter(MetricShuffleFrames, obs.Labels{"event": "received"}),
		peerFramesDup:      reg.Counter(MetricShuffleFrames, obs.Labels{"event": "duplicate"}),
		peerFramesRejected: reg.Counter(MetricShuffleFrames, obs.Labels{"event": "rejected"}),
		peerDialErrs:       reg.Counter(MetricShuffleErrors, obs.Labels{"kind": "dial"}),
		peerWriteErrs:      reg.Counter(MetricShuffleErrors, obs.Labels{"kind": "write"}),

		shuffleRawBytes:  reg.Counter(MetricShufflePayload, obs.Labels{"form": "raw"}),
		shuffleCompBytes: reg.Counter(MetricShufflePayload, obs.Labels{"form": "compressed"}),

		pendingBuckets: reg.Gauge(MetricPendingBuckets, nil),
		reduceInflight: reg.Gauge(MetricReduceInflight, nil),
	}
	raw, comp := m.shuffleRawBytes, m.shuffleCompBytes
	reg.GaugeFunc(MetricShuffleRatio, nil, func() float64 {
		c := comp.Value()
		if c == 0 {
			return 0
		}
		return float64(raw.Value()) / float64(c)
	})
	return m
}
