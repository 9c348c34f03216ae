#!/bin/sh
# Replicated-serving end-to-end drill: one polserve -live primary journaling
# with an aggressive checkpoint cadence, two polserve read replicas
# bootstrapping from its checkpoint generations and tailing its WAL.
#
#   1. feed the first half of a synthetic fleet archive, wait for both
#      replicas to bootstrap and catch up;
#   2. kill replica B mid-stream, feed the second half (replica A tails
#      it live, exercising segment rotation + prune on the primary);
#   3. restart replica B — it must re-bootstrap from a newer generation
#      and converge;
#   4. assert both replicas reach lag 0 and that their snapshots are
#      bit-for-bit inventory.Equal to the primary's (polquery -equal);
#   5. assert distributed-trace continuity: a trace ID rooted on a
#      replica (its WAL polls inject W3C traceparent toward the primary)
#      must appear in the primary's /v1/traces too, and a polquery
#      -server -trace invocation prints the primary's span tree;
#   6. start a disk-backed replica (-segdir): it mirrors the primary's
#      newest checkpoint segment over Range requests, serves it off disk,
#      and its Range-assembled file must be byte-identical (cmp) and
#      polquery -equal to the same generation's segment downloaded whole —
#      and, when that generation covers the whole WAL, to the primary's
#      snapshot;
#   7. assert one format on disk: no file the primary or the disk replica
#      wrote, and no downloaded snapshot, starts with the POLINV1 magic.
#
# Run from the repository root:
#
#   ./scripts/replica_e2e.sh
set -e

tmp="$(mktemp -d)"
ppid=""
r1pid=""
r2pid=""
r3pid=""
cleanup() {
	for p in $ppid $r1pid $r2pid $r3pid; do
		kill "$p" 2>/dev/null || true
	done
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp" ./cmd/polgen ./cmd/polfeed ./cmd/polserve ./cmd/polquery

feed="127.0.0.1:$((10300 + $$ % 100))"
phttp="127.0.0.1:$((18300 + $$ % 100))"
r1http="127.0.0.1:$((18400 + $$ % 100))"
r2http="127.0.0.1:$((18500 + $$ % 100))"

"$tmp/polgen" -vessels 8 -days 30 -seed 7 -out "$tmp/fleet.nmea"
lines="$(wc -l <"$tmp/fleet.nmea")"
half=$((lines / 2))
head -n "$half" "$tmp/fleet.nmea" >"$tmp/first.nmea"
tail -n +"$((half + 1))" "$tmp/fleet.nmea" >"$tmp/second.nmea"

# Primary: tiny WAL segments + checkpoint-every-merge so rotation,
# generation turnover, and prune all fire during a short drill.
mkdir -p "$tmp/primary"
"$tmp/polserve" -live \
	-listen "$feed" -addr "$phttp" -res 6 -tick 100ms \
	-journal "$tmp/primary/live.wal" -checkpoint "$tmp/primary/live.polinv" \
	-checkpoint-every 1 -wal-segment-bytes 262144 \
	>"$tmp/primary.log" 2>&1 &
ppid=$!

start_replica() {
	"$tmp/polserve" -replica "http://$phttp" -addr "$1" -res 6 \
		-tick 100ms -max-lag 10s >"$2" 2>&1 &
}

start_replica "$r1http" "$tmp/replica1.log"
r1pid=$!
start_replica "$r2http" "$tmp/replica2.log"
r2pid=$!

status_field() { # status_field <http> <json-field>
	"$tmp/polfeed" -get "http://$1/v1/replica/status" 2>/dev/null |
		sed -n 's/.*"'"$2"'": *\([0-9][0-9]*\).*/\1/p'
}

primary_wal_seq() {
	"$tmp/polfeed" -get "http://$phttp/v1/info" 2>/dev/null |
		sed -n 's/.*"walSeq": *\([0-9][0-9]*\).*/\1/p'
}

# wait_caught_up <http> <seq> <label> — polls until the replica has
# applied at least <seq>; bounded, so a stuck replica fails the drill
# instead of hanging it.
wait_caught_up() {
	i=0
	while :; do
		applied="$(status_field "$1" applied_seq)"
		[ -n "$applied" ] && [ "$applied" -ge "$2" ] && return 0
		i=$((i + 1))
		if [ "$i" -gt 600 ]; then
			echo "$3 never caught up to seq $2 (applied=${applied:-none}):"
			tail -5 "$tmp/primary.log"
			tail -20 "$4"
			exit 1
		fi
		sleep 0.1
	done
}

### Phase 1: first half of the archive; both replicas catch up.
"$tmp/polfeed" -addr "$feed" -stats "http://$phttp/v1/ingest/stats" \
	"$tmp/first.nmea" >"$tmp/first.stats" 2>"$tmp/first.feed.log"
sleep 1 # let the trailing merge tick land so walSeq is stable
seq1="$(primary_wal_seq)"
if [ -z "$seq1" ] || [ "$seq1" -lt 1 ]; then
	echo "primary produced no WAL records:"
	cat "$tmp/primary.log"
	exit 1
fi
wait_caught_up "$r1http" "$seq1" "replica 1" "$tmp/replica1.log"
wait_caught_up "$r2http" "$seq1" "replica 2" "$tmp/replica2.log"

# A caught-up replica answers readiness probes without a lag complaint.
"$tmp/polfeed" -get "http://$r1http/readyz" >"$tmp/r1.readyz"
grep -q 'ready' "$tmp/r1.readyz" || {
	echo "replica 1 not ready after catch-up:"
	cat "$tmp/r1.readyz"
	exit 1
}

### Phase 2: kill replica 2 mid-stream, feed the rest into replica 1.
kill -TERM "$r2pid"
wait "$r2pid" 2>/dev/null || true
r2pid=""
"$tmp/polfeed" -addr "$feed" -stats "http://$phttp/v1/ingest/stats" \
	"$tmp/second.nmea" >"$tmp/second.stats" 2>"$tmp/second.feed.log"
sleep 1
seq2="$(primary_wal_seq)"
if [ "$seq2" -le "$seq1" ]; then
	echo "second feed advanced no WAL records ($seq1 -> $seq2)"
	exit 1
fi
wait_caught_up "$r1http" "$seq2" "replica 1" "$tmp/replica1.log"

### Phase 3: restart replica 2 — re-bootstrap from a newer generation.
start_replica "$r2http" "$tmp/replica2.restart.log"
r2pid=$!
wait_caught_up "$r2http" "$seq2" "restarted replica 2" "$tmp/replica2.restart.log"
boots="$(status_field "$r2http" bootstraps)"
if [ -z "$boots" ] || [ "$boots" -lt 1 ]; then
	echo "restarted replica 2 never bootstrapped"
	exit 1
fi

### Phase 4: bounded lag + bit-exact convergence.
for r in "$r1http|replica1" "$r2http|replica2"; do
	http="${r%|*}"
	name="${r#*|}"
	lag="$(status_field "$http" lag_seq)"
	if [ -z "$lag" ] || [ "$lag" -ne 0 ]; then
		echo "$name finished with lag_seq=${lag:-none}, want 0"
		exit 1
	fi
done

"$tmp/polfeed" -get "http://$phttp/v1/repl/snapshot" >"$tmp/primary.polinv"
"$tmp/polfeed" -get "http://$r1http/v1/repl/snapshot" >"$tmp/replica1.polinv"
"$tmp/polfeed" -get "http://$r2http/v1/repl/snapshot" >"$tmp/replica2.polinv"
"$tmp/polquery" -inv "$tmp/primary.polinv" -equal "$tmp/replica1.polinv" || {
	echo "replica 1 snapshot diverged from primary"
	exit 1
}
"$tmp/polquery" -inv "$tmp/primary.polinv" -equal "$tmp/replica2.polinv" || {
	echo "replica 2 snapshot diverged from primary"
	exit 1
}

### Phase 5: cross-process trace continuity. Replica WAL polls root a
### trace client-side and inject its traceparent; the primary's repl
### middleware records a server span under the same trace ID, so the two
### trace stores must intersect.
trace_ids() { # trace_ids <http> <file>
	"$tmp/polfeed" -get "http://$1/v1/traces" |
		sed -n 's/.*"traceId": *"\([0-9a-f]*\)".*/\1/p' | sort -u >"$2"
}
trace_ids "$r1http" "$tmp/replica1.traces"
trace_ids "$phttp" "$tmp/primary.traces"
shared="$(comm -12 "$tmp/replica1.traces" "$tmp/primary.traces" | head -1)"
if [ -z "$shared" ]; then
	echo "no trace ID shared between replica 1 and the primary:"
	echo "replica IDs:" && head -5 "$tmp/replica1.traces"
	echo "primary IDs:" && head -5 "$tmp/primary.traces"
	exit 1
fi

# And the user-facing path: polquery injects a traceparent, the primary
# records the server span, polquery reads the tree back by that ID.
"$tmp/polquery" -server "http://$phttp" -info -trace >"$tmp/polquery.trace" || {
	echo "polquery -server -trace failed:"
	cat "$tmp/polquery.trace"
	exit 1
}
grep -q 'http\./v1/info \[polserve-live\]' "$tmp/polquery.trace" || {
	echo "polquery -trace printed no server-side span:"
	cat "$tmp/polquery.trace"
	exit 1
}

### Phase 6: disk-backed replica. Feeding has stopped, so the primary's
### newest checkpoint generation is stable; the disk replica must mirror
### its segment into -segdir and converge to that generation.
r3http="127.0.0.1:$((18700 + $$ % 100))"
mkdir -p "$tmp/segdir"
"$tmp/polserve" -replica "http://$phttp" -segdir "$tmp/segdir" -addr "$r3http" \
	-res 6 -tick 100ms >"$tmp/replica3.log" 2>&1 &
r3pid=$!

newest_seg_gen() {
	"$tmp/polfeed" -get "http://$phttp/v1/repl/manifest" 2>/dev/null |
		tr -d '\n' | tr '{' '\n' | grep '"seg"' |
		sed -n 's/.*"gen": *\([0-9][0-9]*\).*/\1/p' | head -1
}
want_gen="$(newest_seg_gen)"
if [ -z "$want_gen" ]; then
	echo "primary manifest has no segment generation:"
	"$tmp/polfeed" -get "http://$phttp/v1/repl/manifest"
	exit 1
fi
i=0
while :; do
	gen="$(status_field "$r3http" generation)"
	[ -n "$gen" ] && [ "$gen" -ge "$want_gen" ] && break
	i=$((i + 1))
	if [ "$i" -gt 600 ]; then
		echo "disk replica never installed generation $want_gen (at ${gen:-none}):"
		tail -20 "$tmp/replica3.log"
		exit 1
	fi
	sleep 0.1
done

# Resolve that generation's segment name from the manifest, download it
# whole over the same route the disk replica Range-read it from, and
# compare: the mirror must be the same bytes and the same inventory.
genline="$("$tmp/polfeed" -get "http://$phttp/v1/repl/manifest" |
	tr -d '\n' | tr '{' '\n' | grep '"gen": *'"$gen"'[,}]' | head -1)"
seg_name="$(printf '%s' "$genline" | sed -n 's/.*"seg": *"\([^"]*\)".*/\1/p')"
gen_seq="$(printf '%s' "$genline" | sed -n 's/.*"seq": *\([0-9][0-9]*\).*/\1/p')"
if [ -z "$seg_name" ] || [ -z "$gen_seq" ]; then
	echo "could not resolve generation $gen in the primary manifest"
	exit 1
fi
"$tmp/polfeed" -get "http://$phttp/v1/repl/checkpoint/$gen/$seg_name" >"$tmp/ckpt.polinv"
cmp "$tmp/ckpt.polinv" "$tmp/segdir/$seg_name" || {
	echo "disk replica segment is not byte-identical to checkpoint generation $gen"
	exit 1
}
"$tmp/polquery" -inv "$tmp/ckpt.polinv" -equal "$tmp/segdir/$seg_name" || {
	echo "disk replica segment diverged from checkpoint generation $gen"
	exit 1
}
# A checkpoint cadence that finds the previous write still running is
# skipped, so the newest generation may trail the last merge; when it does
# cover the whole WAL it must equal the snapshot fetched in phase 4.
snap_note="trails the WAL, snapshot comparison skipped"
if [ "$gen_seq" -eq "$(primary_wal_seq)" ]; then
	"$tmp/polquery" -inv "$tmp/ckpt.polinv" -equal "$tmp/primary.polinv" || {
		echo "checkpoint generation $gen covers the WAL but differs from the primary snapshot"
		exit 1
	}
	snap_note="equal to the primary snapshot"
fi
# And the disk replica answers queries over HTTP like any serving mode.
"$tmp/polfeed" -get "http://$r3http/v1/info" | grep -q '"groups"' || {
	echo "disk replica /v1/info served no groups:"
	tail -20 "$tmp/replica3.log"
	exit 1
}

### Phase 7: one inventory format on disk. Nothing the primary
### checkpointed, the disk replica mirrored, or a snapshot route served
### may be a POLINV1 file.
for f in "$tmp"/primary/* "$tmp"/segdir/* "$tmp"/*.polinv; do
	[ -f "$f" ] || continue
	if [ "$(head -c 7 "$f")" = "POLINV1" ]; then
		echo "POLINV1 file found on disk: $f"
		exit 1
	fi
done
nsegs="$(ls "$tmp"/primary/*.seg 2>/dev/null | wc -l)"
if [ "$nsegs" -lt 1 ] || [ "$(head -c 7 "$tmp/primary/live.polinv")" != "POLSEG1" ]; then
	echo "primary checkpoint directory holds no segment generation / stable artifact:"
	ls -l "$tmp/primary"
	exit 1
fi

echo "replica e2e passed: 2 replicas converged bit-exact at seq $seq2 (one killed and re-bootstrapped mid-feed); disk replica served gen $gen byte-identical from $seg_name ($snap_note); trace $shared spans primary+replica; no POLINV1 file on disk"
