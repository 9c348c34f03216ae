#!/bin/sh
# Chaos end-to-end drill for the durability layer: builds polserve +
# polgen + polfeed, ingests a synthetic fleet as the control run, then
# replays the same archive through two injected failures —
#
#   1. process crash in the middle of a checkpoint rename
#      (POL_FAILPOINTS='inventory.writefile.rename=crash@4'), then a
#      clean restart that must recover from manifest + WAL and converge
#      to the control group count after an idempotent full re-feed;
#
#   2. a permanently failing journal disk
#      (POL_FAILPOINTS='ingest.journal.append=error(...)@500'): the
#      daemon must keep serving degraded (readyz 200, drops counted),
#      drop a flight-recorder trace dump next to the journal, shut down
#      cleanly on SIGTERM, and again converge after a clean restart +
#      re-feed.
#
# Run from the repository root:
#
#   ./scripts/chaos_e2e.sh
set -e

tmp="$(mktemp -d)"
pid=""
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp" ./cmd/polserve ./cmd/polgen ./cmd/polfeed

feed="127.0.0.1:$((10200 + $$ % 100))"
http="127.0.0.1:$((18200 + $$ % 100))"
stats="http://$http/v1/status"

"$tmp/polgen" -vessels 8 -days 30 -seed 7 -out "$tmp/fleet.nmea"

# fact <file> <key> — one fact from a saved /v1/status document; every key
# is unique at any depth, so a one-line match reads it.
fact() {
	sed -n 's/.*"'"$2"'": *\([0-9]*\).*/\1/p' "$1"
}

# start_daemon <dir> <log> [env...] — launches polserve -live journaling into
# <dir> with an aggressive merge/checkpoint cadence and tiny WAL
# segments so rotation, checkpoint, and prune paths all fire during a
# short drill.
start_daemon() {
	d="$1"
	log="$2"
	shift 2
	mkdir -p "$d"
	env "$@" "$tmp/polserve" -live \
		-listen "$feed" -addr "$http" -res 6 -tick 100ms \
		-journal "$d/live.wal" -checkpoint "$d/live.polinv" \
		-checkpoint-every 1 -wal-segment-bytes 262144 \
		-max-inflight 64 \
		>"$log" 2>&1 &
	pid=$!
}

### Control: one clean run of the full archive.
start_daemon "$tmp/ctl" "$tmp/ctl.log"
"$tmp/polfeed" -addr "$feed" -stats "$stats" "$tmp/fleet.nmea" >"$tmp/ctl.stats" 2>"$tmp/ctl.feed.log"
kill -TERM "$pid" && wait "$pid" || true
pid=""
control="$(fact "$tmp/ctl.stats" groups)"
if [ -z "$control" ] || [ "$control" -lt 1 ]; then
	echo "control run produced no groups:"
	cat "$tmp/ctl.log"
	exit 1
fi

### Scenario 1: crash mid-checkpoint rename, recover, idempotent re-feed.
start_daemon "$tmp/s1" "$tmp/s1.log" POL_FAILPOINTS='inventory.writefile.rename=crash@4'
# The daemon dies mid-feed and stays dead; cap the reconnect loop so the
# feeder gives up quickly instead of retrying to the default deadline. The
# feed is paced so it spans dozens of merge ticks: sent as fast as the
# socket takes it, the whole archive can land within two or three merges,
# one checkpoint, so the fourth rename never comes and the wait below
# never returns.
"$tmp/polfeed" -addr "$feed" -rate 20000 -timeout 15s "$tmp/fleet.nmea" >/dev/null 2>&1 || true
wait "$pid" 2>/dev/null && {
	echo "scenario 1: daemon survived a crash failpoint:"
	cat "$tmp/s1.log"
	exit 1
}
pid=""
grep -q 'fault: crash at inventory.writefile.rename' "$tmp/s1.log" || {
	echo "scenario 1: crash failpoint never fired:"
	cat "$tmp/s1.log"
	exit 1
}

start_daemon "$tmp/s1" "$tmp/s1.restart.log"
"$tmp/polfeed" -addr "$feed" -stats "$stats" "$tmp/fleet.nmea" >"$tmp/s1.stats" 2>"$tmp/s1.feed.log"
s1="$(fact "$tmp/s1.stats" groups)"
# New durability metrics must be visible on /metrics.
"$tmp/polfeed" -get "http://$http/metrics" >"$tmp/s1.metrics" || {
	echo "scenario 1: metrics endpoint failed"
	exit 1
}
for m in pol_ingest_degraded pol_ingest_wal_corruption_total pol_ingest_resumes_total; do
	grep -q "$m" "$tmp/s1.metrics" || {
		echo "scenario 1: metric $m missing from /metrics"
		exit 1
	}
done
kill -TERM "$pid" && wait "$pid" || true
pid=""
if [ "$s1" != "$control" ]; then
	echo "scenario 1 diverged after crash recovery: control=$control groups, recovered=$s1 groups"
	cat "$tmp/s1.restart.log"
	exit 1
fi

### Scenario 2: journal disk permanently gone mid-run (after ~40k
### appends, so real state exists) — degraded serving, clean SIGTERM,
### recovery on restart.
start_daemon "$tmp/s2" "$tmp/s2.log" \
	POL_FAILPOINTS='ingest.journal.append=error(no space left on device)@40000'
"$tmp/polfeed" -addr "$feed" -stats "$stats" "$tmp/fleet.nmea" >"$tmp/s2.stats" 2>"$tmp/s2.feed.log"
dropped="$(fact "$tmp/s2.stats" degraded_dropped)"
if [ -z "$dropped" ] || [ "$dropped" -lt 1 ]; then
	echo "scenario 2: journal fault never degraded the daemon:"
	cat "$tmp/s2.stats"
	exit 1
fi
# A degraded daemon keeps answering readiness probes with 200.
"$tmp/polfeed" -get "http://$http/readyz" >"$tmp/s2.readyz" || {
	echo "scenario 2: degraded daemon failed readyz:"
	cat "$tmp/s2.readyz"
	exit 1
}
grep -q 'ready' "$tmp/s2.readyz" || {
	echo "scenario 2: unexpected readyz body:"
	cat "$tmp/s2.readyz"
	exit 1
}
# Entering degraded mode trips the flight recorder: the last retained
# trace spans must be on disk next to the journal for post-mortems.
ls "$tmp/s2"/flight-*-degraded.json >/dev/null 2>&1 || {
	echo "scenario 2: no flight-recorder dump after degraded transition:"
	ls "$tmp/s2"
	exit 1
}
kill -TERM "$pid"
wait "$pid" || {
	echo "scenario 2: degraded daemon did not shut down cleanly:"
	cat "$tmp/s2.log"
	exit 1
}
pid=""

start_daemon "$tmp/s2" "$tmp/s2.restart.log"
"$tmp/polfeed" -addr "$feed" -stats "$stats" "$tmp/fleet.nmea" >"$tmp/s2r.stats" 2>"$tmp/s2r.feed.log"
s2="$(fact "$tmp/s2r.stats" groups)"
kill -TERM "$pid" && wait "$pid" || true
pid=""
if [ "$s2" != "$control" ]; then
	echo "scenario 2 diverged after degraded run: control=$control groups, recovered=$s2 groups"
	cat "$tmp/s2.restart.log"
	exit 1
fi

echo "chaos e2e passed: $control groups; crash-recovery and degraded-restart both converged"
