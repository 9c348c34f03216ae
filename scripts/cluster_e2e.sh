#!/bin/sh
# Loopback cluster end-to-end smoke, two stages:
#
#  1. Distributed synthetic build with two workers — one killed mid-task by
#     a failpoint — checking re-queue convergence and trace continuity.
#  2. Distributed archive build with four workers over the direct
#     worker-to-worker shuffle, one worker killed during the shuffle —
#     checking bucket-ownership reassignment and bit-exact convergence
#     against the single-process build via polquery -equal.
#
# Run from the repository root:
#
#   ./scripts/cluster_e2e.sh
set -e

tmp="$(mktemp -d)"
w1=""
w2=""
w3=""
w4=""
cleanup() {
	for p in "$w1" "$w2" "$w3" "$w4"; do
		[ -n "$p" ] && kill "$p" 2>/dev/null
	done
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp" ./cmd/polbuild ./cmd/polworker ./cmd/polgen ./cmd/polquery

addr="127.0.0.1:$((7900 + $$ % 100))"

"$tmp/polbuild" -synthetic -vessels 16 -days 4 -res 6 \
	-out "$tmp/local.polinv" >"$tmp/local.log" 2>&1

"$tmp/polworker" -coordinator "$addr" -v >"$tmp/w1.log" 2>&1 &
w1=$!
"$tmp/polworker" -coordinator "$addr" -failpoint 'cluster.worker.kill=error*1' >"$tmp/w2.log" 2>&1 &
w2=$!

"$tmp/polbuild" -synthetic -vessels 16 -days 4 -res 6 \
	-coordinator "$addr" -workers 2 -v \
	-out "$tmp/dist.polinv" >"$tmp/dist.log" 2>&1 || {
	echo "distributed build failed:"
	cat "$tmp/dist.log"
	exit 1
}

wait "$w1" || { echo "surviving worker failed:"; cat "$tmp/w1.log"; exit 1; }
if wait "$w2"; then
	echo "killed worker exited 0, failpoint did not fire:"
	cat "$tmp/w2.log"
	exit 1
fi
w1=""
w2=""

grep -q 're-queued' "$tmp/dist.log" || {
	echo "killed worker's task was not re-queued:"
	cat "$tmp/dist.log"
	exit 1
}

local_groups="$(sed -n 's/.*wrote .* (\([0-9]*\) groups.*/\1/p' "$tmp/local.log")"
dist_groups="$(sed -n 's/.*wrote .* (\([0-9]*\) groups.*/\1/p' "$tmp/dist.log")"
if [ -z "$local_groups" ] || [ "$local_groups" -lt 1 ] || [ "$local_groups" != "$dist_groups" ]; then
	echo "distributed build diverged: local=$local_groups groups, distributed=$dist_groups groups"
	exit 1
fi

# Distributed-trace continuity: the coordinator logs the job's trace ID
# and stamps it into every task frame; the surviving worker must have
# joined the same trace when executing its tasks.
job_trace="$(sed -n 's/.*trace \([0-9a-f]\{32\}\).*/\1/p' "$tmp/dist.log" | head -1)"
if [ -z "$job_trace" ]; then
	echo "coordinator logged no job trace ID:"
	cat "$tmp/dist.log"
	exit 1
fi
grep -q "trace $job_trace" "$tmp/w1.log" || {
	echo "worker never joined job trace $job_trace:"
	grep 'trace' "$tmp/w1.log" || cat "$tmp/w1.log"
	exit 1
}

echo "stage 1 passed: $dist_groups groups, killed worker re-queued, trace $job_trace spans coordinator+worker"

# --- Stage 2: 4-worker peer shuffle with a kill mid-shuffle ---------------
#
# polgen writes an archive; the single-process build of it is the reference.
# Four workers join; the victim dies on its second scan task (error*1@1),
# after it has streamed shuffle output to peers and while it owns reduce
# buckets — forcing the coordinator to re-queue its scans and re-own its
# buckets under a new roster epoch. The distributed inventory must still be
# byte-for-byte equal to the local one.

addr2="127.0.0.1:$((8100 + $$ % 100))"

"$tmp/polgen" -vessels 24 -days 4 -seed 7 -out "$tmp/fleet.nmea" >"$tmp/gen.log" 2>&1
# -parallelism must equal the distributed -reduce-tasks: bit-exactness is
# defined relative to the shuffle width (same vessel-hash partitioning, same
# canonical merge order), so the local reference build uses 8 partitions to
# match -reduce-tasks 8 below.
"$tmp/polbuild" -in "$tmp/fleet.nmea" -res 6 -parallelism 8 \
	-out "$tmp/arc-local.polinv" >"$tmp/arc-local.log" 2>&1

"$tmp/polworker" -coordinator "$addr2" -v >"$tmp/p1.log" 2>&1 &
w1=$!
"$tmp/polworker" -coordinator "$addr2" -v >"$tmp/p2.log" 2>&1 &
w2=$!
"$tmp/polworker" -coordinator "$addr2" -v >"$tmp/p3.log" 2>&1 &
w3=$!
"$tmp/polworker" -coordinator "$addr2" -failpoint 'cluster.worker.kill=error*1@1' \
	-v >"$tmp/p4.log" 2>&1 &
w4=$!

"$tmp/polbuild" -in "$tmp/fleet.nmea" -res 6 \
	-coordinator "$addr2" -workers 4 -map-tasks 12 -reduce-tasks 8 \
	-v \
	-out "$tmp/arc-dist.polinv" >"$tmp/arc-dist.log" 2>&1 || {
	echo "4-worker peer-shuffle build failed:"
	cat "$tmp/arc-dist.log"
	exit 1
}

for p in "$w1" "$w2" "$w3"; do
	wait "$p" || { echo "surviving peer worker failed:"; cat "$tmp"/p[123].log; exit 1; }
done
if wait "$w4"; then
	echo "shuffle victim exited 0, kill failpoint did not fire:"
	cat "$tmp/p4.log"
	exit 1
fi
w1=""
w2=""
w3=""
w4=""

reassigned="$(sed -n 's/.*\([0-9][0-9]*\) bucket reassignments.*/\1/p' "$tmp/arc-dist.log")"
if [ -z "$reassigned" ] || [ "$reassigned" -lt 1 ]; then
	echo "dead owner's buckets were not reassigned:"
	cat "$tmp/arc-dist.log"
	exit 1
fi

"$tmp/polquery" -inv "$tmp/arc-local.polinv" -equal "$tmp/arc-dist.polinv" || {
	echo "peer-shuffle build diverged from single-process build"
	exit 1
}

echo "cluster e2e smoke passed: stage 2 bit-exact after kill mid-shuffle ($reassigned bucket reassignments)"
