#!/bin/sh
# Loopback cluster end-to-end smoke: a distributed build of a polgen archive
# with four workers over the direct worker-to-worker shuffle, one worker
# killed during the shuffle — checking task re-queue, bucket-ownership
# reassignment, trace continuity across processes, and bit-exact
# convergence against the single-process build via polquery -equal.
#
# Run from the repository root:
#
#   ./scripts/cluster_e2e.sh
set -e

tmp="$(mktemp -d)"
pids=""
victim=""
cleanup() {
	[ -n "$pids$victim" ] && kill $pids $victim 2>/dev/null
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp" ./cmd/polbuild ./cmd/polworker ./cmd/polgen ./cmd/polquery

addr="127.0.0.1:$((7900 + $$ % 100))"

# polgen writes an archive; the single-process build of it is the reference.
# -parallelism must equal the distributed -reduce-tasks: bit-exactness is
# defined relative to the shuffle width (same vessel-hash partitioning, same
# canonical merge order), so the local reference build uses 8 partitions to
# match -reduce-tasks 8 below.
"$tmp/polgen" -vessels 24 -days 4 -seed 7 -out "$tmp/fleet.nmea" >"$tmp/gen.log" 2>&1
"$tmp/polbuild" -in "$tmp/fleet.nmea" -res 6 -parallelism 8 \
	-out "$tmp/local.polinv" >"$tmp/local.log" 2>&1

# Four workers join; the victim dies on its second scan task (error*1@1),
# after it has streamed shuffle output to peers and while it owns reduce
# buckets — forcing the coordinator to re-queue its scans and re-own its
# buckets under a new roster epoch.
for i in 1 2 3; do
	"$tmp/polworker" -coordinator "$addr" -v >"$tmp/p$i.log" 2>&1 &
	pids="$pids $!"
done
"$tmp/polworker" -coordinator "$addr" -failpoint 'cluster.worker.kill=error*1@1' \
	-v >"$tmp/p4.log" 2>&1 &
victim=$!

"$tmp/polbuild" -in "$tmp/fleet.nmea" -res 6 \
	-coordinator "$addr" -workers 4 -map-tasks 12 -reduce-tasks 8 -v \
	-out "$tmp/dist.polinv" >"$tmp/dist.log" 2>&1 || {
	echo "4-worker distributed build failed:"
	cat "$tmp/dist.log"
	exit 1
}

for p in $pids; do
	wait "$p" || { echo "surviving worker failed:"; cat "$tmp"/p[123].log; exit 1; }
done
pids=""
if wait "$victim"; then
	echo "shuffle victim exited 0, kill failpoint did not fire:"
	cat "$tmp/p4.log"
	exit 1
fi
victim=""

grep -q 're-queued' "$tmp/dist.log" || {
	echo "killed worker's scans were not re-queued:"
	cat "$tmp/dist.log"
	exit 1
}
reassigned="$(sed -n 's/.*\([0-9][0-9]*\) bucket reassignments.*/\1/p' "$tmp/dist.log")"
if [ -z "$reassigned" ] || [ "$reassigned" -lt 1 ]; then
	echo "dead owner's buckets were not reassigned:"
	cat "$tmp/dist.log"
	exit 1
fi

# Distributed-trace continuity: the coordinator logs the job's trace ID
# and stamps it into every task frame and roster; a surviving worker must
# have joined the same trace when executing its tasks.
job_trace="$(sed -n 's/.*trace \([0-9a-f]\{32\}\).*/\1/p' "$tmp/dist.log" | head -1)"
if [ -z "$job_trace" ]; then
	echo "coordinator logged no job trace ID:"
	cat "$tmp/dist.log"
	exit 1
fi
grep -q "trace $job_trace" "$tmp/p1.log" || {
	echo "worker never joined job trace $job_trace:"
	grep 'trace' "$tmp/p1.log" || cat "$tmp/p1.log"
	exit 1
}

"$tmp/polquery" -inv "$tmp/local.polinv" -equal "$tmp/dist.polinv" || {
	echo "distributed build diverged from single-process build"
	exit 1
}

echo "cluster e2e smoke passed: bit-exact after kill mid-shuffle ($reassigned bucket reassignments, scans re-queued, trace $job_trace spans coordinator+worker)"
