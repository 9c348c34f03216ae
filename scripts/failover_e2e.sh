#!/bin/sh
# Primary-failover end-to-end drill: one polserve -live primary, a promotable
# polserve replica (r1, with its own journal/checkpoint targets and an
# NMEA listener held in reserve), and a second polserve replica (r2)
# configured with both endpoints.
#
#   1. feed the first half of a synthetic fleet archive; both replicas
#      bootstrap and catch up;
#   2. start a paced feed of the second half with a failover-aware
#      polfeed (-addr/-probe lists), kill -9 the primary mid-feed, and
#      promote r1 (polquery -promote): the feeder must follow the term
#      to r1's listener, rewind, and finish with exit 0;
#   3. r2 must switch endpoints to promoted r1, re-bootstrap onto its
#      term-2 history, and drain to lag 0;
#   4. restart the dead primary from its old artifacts (it comes back
#      claiming term 1): r2's probes carry the term-2 high-water mark,
#      so the stale primary must fence itself — asserted via "fenced"
#      and fencing_rejects in its /v1/ingest/stats;
#   5. assert r1 and r2 snapshots are bit-for-bit inventory.Equal
#      (polquery -equal) and non-empty.
#
# Run from the repository root:
#
#   ./scripts/failover_e2e.sh
set -e

tmp="$(mktemp -d)"
ppid=""
r1pid=""
r2pid=""
cleanup() {
	for p in $ppid $r1pid $r2pid; do
		kill "$p" 2>/dev/null || true
	done
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp" ./cmd/polgen ./cmd/polfeed ./cmd/polserve ./cmd/polquery

feed="127.0.0.1:$((11300 + $$ % 100))"
r1feed="127.0.0.1:$((11400 + $$ % 100))"
phttp="127.0.0.1:$((19300 + $$ % 100))"
r1http="127.0.0.1:$((19400 + $$ % 100))"
r2http="127.0.0.1:$((19500 + $$ % 100))"

"$tmp/polgen" -vessels 8 -days 30 -seed 7 -out "$tmp/fleet.nmea"
lines="$(wc -l <"$tmp/fleet.nmea")"
half=$((lines / 2))
head -n "$half" "$tmp/fleet.nmea" >"$tmp/first.nmea"
tail -n +"$((half + 1))" "$tmp/fleet.nmea" >"$tmp/second.nmea"

start_primary() { # start_primary <log>
	"$tmp/polserve" -live \
		-listen "$feed" -addr "$phttp" -res 6 -tick 100ms \
		-journal "$tmp/primary/live.wal" -checkpoint "$tmp/primary/live.polinv" \
		-checkpoint-every 1 -wal-segment-bytes 262144 \
		>"$1" 2>&1 &
	ppid=$!
}

mkdir -p "$tmp/primary" "$tmp/r1"
start_primary "$tmp/primary.log"

# r1 is promotable: it owns journal/checkpoint targets for its future
# life as a primary and an NMEA listener that opens on promotion.
"$tmp/polserve" -replica "http://$phttp" -addr "$r1http" -res 6 \
	-tick 100ms -max-lag 10s -listen "$r1feed" \
	-journal "$tmp/r1/live.wal" -checkpoint "$tmp/r1/live.polinv" \
	-checkpoint-every 1 -wal-segment-bytes 262144 \
	-probe-every 300ms -drain-timeout 2s \
	>"$tmp/replica1.log" 2>&1 &
r1pid=$!

# r2 knows both endpoints and follows whichever serves the highest term.
"$tmp/polserve" -replica "http://$phttp,http://$r1http" -addr "$r2http" \
	-res 6 -tick 100ms -max-lag 10s -probe-every 300ms \
	>"$tmp/replica2.log" 2>&1 &
r2pid=$!

status_field() { # status_field <http> <json-field>
	"$tmp/polfeed" -get "http://$1/v1/replica/status" 2>/dev/null |
		sed -n 's/.*"'"$2"'": *\([0-9][0-9]*\).*/\1/p'
}

stats_field() { # stats_field <http> <json-field>
	"$tmp/polfeed" -get "http://$1/v1/ingest/stats" 2>/dev/null |
		sed -n 's/.*"'"$2"'": *\([0-9][0-9]*\).*/\1/p'
}

primary_wal_seq() {
	"$tmp/polfeed" -get "http://$phttp/v1/info" 2>/dev/null |
		sed -n 's/.*"walSeq": *\([0-9][0-9]*\).*/\1/p'
}

# wait_caught_up <http> <seq> <label> <log>
wait_caught_up() {
	i=0
	while :; do
		applied="$(status_field "$1" applied_seq)"
		[ -n "$applied" ] && [ "$applied" -ge "$2" ] && return 0
		i=$((i + 1))
		if [ "$i" -gt 600 ]; then
			echo "$3 never caught up to seq $2 (applied=${applied:-none}):"
			tail -20 "$4"
			exit 1
		fi
		sleep 0.1
	done
}

### Phase 1: first half; both replicas converge on the primary.
"$tmp/polfeed" -addr "$feed" -stats "http://$phttp/v1/ingest/stats" \
	"$tmp/first.nmea" >"$tmp/first.stats" 2>"$tmp/first.feed.log"
sleep 1
seq1="$(primary_wal_seq)"
if [ -z "$seq1" ] || [ "$seq1" -lt 1 ]; then
	echo "primary produced no WAL records:"
	cat "$tmp/primary.log"
	exit 1
fi
wait_caught_up "$r1http" "$seq1" "replica 1" "$tmp/replica1.log"
wait_caught_up "$r2http" "$seq1" "replica 2" "$tmp/replica2.log"

### Phase 2: paced second-half feed; kill the primary mid-feed; promote
### r1. The feeder's probe list lets it follow the promotion on its own;
### the huge rewind makes it restart the half from line one, so records
### the dead primary journaled but never replicated are re-fed (the
### promoted primary dedups the prefix it already has).
secondlines="$(wc -l <"$tmp/second.nmea")"
rate=$((secondlines / 6))
[ "$rate" -lt 1 ] && rate=1
"$tmp/polfeed" -addr "$feed,$r1feed" -probe "http://$phttp,http://$r1http" \
	-rate "$rate" -rewind "$lines" -timeout 90s \
	"$tmp/second.nmea" >/dev/null 2>"$tmp/second.feed.log" &
feedpid=$!

sleep 1.5
kill -9 "$ppid" 2>/dev/null || true
wait "$ppid" 2>/dev/null || true
ppid=""

"$tmp/polquery" -promote "http://$r1http" >"$tmp/promote.json" || {
	echo "promotion failed:"
	cat "$tmp/promote.json"
	tail -20 "$tmp/replica1.log"
	exit 1
}
grep -q '"term": *2' "$tmp/promote.json" || {
	echo "promotion did not land on term 2:"
	cat "$tmp/promote.json"
	exit 1
}

wait "$feedpid" || {
	echo "feeder did not survive the failover:"
	tail -20 "$tmp/second.feed.log"
	tail -20 "$tmp/replica1.log"
	exit 1
}

# Settle the promoted primary: all feeds at EOF, queue drained.
"$tmp/polfeed" -get "http://$r1http/v1/ingest/stats" >"$tmp/r1.stats"
i=0
while :; do
	seq2="$(stats_field "$r1http" journal_seq)"
	prev="$seq2"
	sleep 0.5
	seq2="$(stats_field "$r1http" journal_seq)"
	[ -n "$seq2" ] && [ "$seq2" = "$prev" ] && [ "$seq2" -gt "$seq1" ] && break
	i=$((i + 1))
	if [ "$i" -gt 120 ]; then
		echo "promoted primary's journal never settled past seq $seq1 (at ${seq2:-none}):"
		tail -20 "$tmp/replica1.log"
		exit 1
	fi
done

### Phase 3: r2 follows the term to r1 and drains its new history.
wait_caught_up "$r2http" "$seq2" "replica 2 (on promoted r1)" "$tmp/replica2.log"
r2term="$(status_field "$r2http" term)"
if [ -z "$r2term" ] || [ "$r2term" -lt 2 ]; then
	echo "replica 2 never adopted the promoted term (term=${r2term:-none}):"
	"$tmp/polfeed" -get "http://$r2http/v1/replica/status"
	exit 1
fi

### Phase 4: the dead primary comes back from its old artifacts at term
### 1; r2's high-water probes must fence it.
start_primary "$tmp/primary.restart.log"
i=0
while :; do
	fencerejects="$(stats_field "$phttp" fencing_rejects)"
	[ -n "$fencerejects" ] && [ "$fencerejects" -ge 1 ] && break
	i=$((i + 1))
	if [ "$i" -gt 300 ]; then
		echo "restarted stale primary was never fenced:"
		"$tmp/polfeed" -get "http://$phttp/v1/ingest/stats"
		tail -20 "$tmp/primary.restart.log"
		exit 1
	fi
	sleep 0.1
done
"$tmp/polfeed" -get "http://$phttp/v1/ingest/stats" | grep -q '"fenced": *true' || {
	echo "stale primary rejected requests but did not fence itself:"
	"$tmp/polfeed" -get "http://$phttp/v1/ingest/stats"
	exit 1
}

### Phase 5: bit-exact convergence of the new primary and its replica.
# The two snapshot fetches are not atomic: r1 is a live primary whose
# merge tick publishes asynchronously, r2 publishes once per poll. A
# publish landing between the two GETs makes a single comparison flaky,
# so re-check quiescence and retry the fetch+compare until the published
# states line up.
i=0
while :; do
	lag="$(status_field "$r2http" lag_seq)"
	if [ -n "$lag" ] && [ "$lag" -eq 0 ]; then
		"$tmp/polfeed" -get "http://$r1http/v1/repl/snapshot" >"$tmp/r1.polinv" 2>/dev/null || true
		"$tmp/polfeed" -get "http://$r2http/v1/repl/snapshot" >"$tmp/r2.polinv" 2>/dev/null || true
		if "$tmp/polquery" -inv "$tmp/r1.polinv" -equal "$tmp/r2.polinv" >"$tmp/equal.out" 2>&1; then
			break
		fi
	fi
	i=$((i + 1))
	if [ "$i" -gt 20 ]; then
		echo "replica 2 diverged from the promoted primary:"
		cat "$tmp/equal.out" 2>/dev/null || true
		echo "--- r1 inventory ---"
		"$tmp/polquery" -inv "$tmp/r1.polinv" -info 2>&1 || true
		echo "--- r2 inventory ---"
		"$tmp/polquery" -inv "$tmp/r2.polinv" -info 2>&1 || true
		echo "--- r2 status ---"
		"$tmp/polfeed" -get "http://$r2http/v1/replica/status" || true
		echo "--- r1 stats ---"
		"$tmp/polfeed" -get "http://$r1http/v1/ingest/stats" || true
		exit 1
	fi
	sleep 1
done
groups="$(sed -n 's/^EQUAL: *\([0-9][0-9]*\) groups.*/\1/p' "$tmp/equal.out")"
if [ -z "$groups" ] || [ "$groups" -lt 1 ]; then
	echo "promoted primary serves an empty inventory:"
	cat "$tmp/equal.out"
	exit 1
fi

echo "failover e2e passed: primary killed mid-feed, r1 promoted to term 2 at seq $seq2, feeder survived, r2 re-bootstrapped and converged bit-exact ($groups groups), stale primary fenced after $fencerejects reject(s)"
