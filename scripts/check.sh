#!/bin/sh
# Repository check suite — the one spelling of it: `make check` and CI both
# run this file. Run from the repository root. `check.sh e2e` runs only the
# end-to-end drills (`make e2e`), so their list exists once, here.
set -e

e2e() {
	echo "== cluster e2e smoke (loopback coordinator + 4 workers, 1 killed mid-shuffle) =="
	./scripts/cluster_e2e.sh

	echo "== chaos e2e (crash mid-checkpoint, dead journal disk, recovery) =="
	./scripts/chaos_e2e.sh

	echo "== replica e2e (2 replicas, 1 killed mid-feed, bit-exact convergence) =="
	./scripts/replica_e2e.sh

	echo "== failover e2e (primary killed mid-feed, replica promoted, stale primary fenced) =="
	./scripts/failover_e2e.sh
}

if [ "$1" = "e2e" ]; then
	e2e
	echo "e2e drills passed"
	exit 0
fi

echo "== gofmt =="
out="$(gofmt -l .)"
if [ -n "$out" ]; then
	echo "gofmt needed on:"
	echo "$out"
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== wire image stays in flight (inventory.Marshal/MergeImage only inside cluster) =="
# The POLINV wire image is for cluster partials; persistence and
# replication are POLSEG1. A caller anywhere else is a format creeping back.
if grep -rnE 'inventory\.Marshal\(|\.MergeImage\(' --include='*.go' --exclude='*_test.go' cmd internal examples ./*.go |
	grep -vE '^internal/(cluster|inventory)/'; then
	echo "inventory.Marshal/MergeImage called outside internal/cluster"
	exit 1
fi

echo "== one shuffle codec (encoding/gob in non-test internal/cluster only in protocol.go, for frame envelopes) =="
# A shuffle payload is a record log and vessel statics in the program's own
# codecs (internal/cluster/payload.go); gob anywhere else in the package is
# a second, reflective spelling of them.
if grep -ln '"encoding/gob"' internal/cluster/*.go | grep -vE '^internal/cluster/(protocol\.go|[a-z_]*_test\.go)$'; then
	echo "encoding/gob imported in internal/cluster outside protocol.go"
	exit 1
fi

echo "== one request builder (http.NewRequest only in internal/replica/follower.go) =="
# Every replication request carries the term mark and is held against it
# on the way back; a second builder is a second spelling of the fencing
# rules.
if grep -n 'http\.NewRequest' internal/replica/*.go | grep -vE '^internal/replica/(follower\.go|[a-z_]*_test\.go):'; then
	echo "http.NewRequest outside internal/replica/follower.go"
	exit 1
fi

echo "== one lifecycle word (state loaded/stored only in internal/ingest/lifecycle.go, no flags beside it) =="
# Role and health are one atomic word with one permission table and one
# edge table; a second reader of the word, or a boolean that comes back, is
# a second spelling of "may I?".
if grep -nE '\.state\.(Load|Store|Swap|CompareAndSwap)\(' internal/ingest/*.go | grep -vE '^internal/ingest/(lifecycle\.go|[a-z_]*_test\.go):'; then
	echo "the lifecycle word is touched outside internal/ingest/lifecycle.go"
	exit 1
fi
if grep -rnE '\.fenced\b|\.degraded\b|\.retrying\b|\.replaying\b|hasDurability|opt\.ReplicaDriven *=' --include='*.go' --exclude='*_test.go' cmd internal examples ./*.go; then
	echo "a lifecycle flag is back"
	exit 1
fi

echo "== one status document (/v1/status; the retired routes and handlers stay gone) =="
# Every node states what it is, what it serves and how far behind it is in
# ingest.Status, served by ingest.ServeStatus; a second route or handler
# for status is a second spelling of those facts.
if grep -rnE '/v1/ingest/stats|/v1/replica/status|StatsHandler|StatusHandler' --include='*.go' --exclude='*_test.go' cmd internal examples ./*.go ||
	grep -rnE '/v1/ingest/stats|/v1/replica/status|StatsHandler|StatusHandler' scripts --exclude=check.sh; then
	echo "a retired status route or handler is back"
	exit 1
fi

echo "== one job shape, one scheduler loop (polworker links no simulator; one ticker case in coordinator.go) =="
# A distributed build reads an archive and one loop schedules it; a worker
# that links internal/sim, or a second straggler tick, is a second shape
# or a second loop creeping back.
if go list -deps ./cmd/polworker | grep 'internal/sim$'; then
	echo "cmd/polworker links internal/sim"
	exit 1
fi
if [ "$(grep -c 'case <-ticker.C' internal/cluster/coordinator.go)" != 1 ]; then
	echo "internal/cluster/coordinator.go must have exactly one scheduler loop (one 'case <-ticker.C')"
	exit 1
fi

echo "== one JSON encoder (no json.NewEncoder or SetIndent in internal/api non-test code) =="
# Every /v1 body is built by the append-style writer in internal/api/json.go
# and pinned byte for byte by the reflection handlers of ref_test.go; a
# reflection encoder back in a handler is a second spelling of the bodies.
if grep -nE 'json\.NewEncoder|SetIndent' internal/api/*.go | grep -vE '^internal/api/[a-z_]*_test\.go:'; then
	echo "a reflection JSON encoder is back in internal/api"
	exit 1
fi

echo "== one inflate (no flate.NewReader in non-test Go outside internal/deflate) =="
# Every read of flate bytes — a segment block, a shuffle frame — goes
# through deflate.Inflate, or deflate.InflatePrefix where a segment read
# stops a block early: the same kernel, Inflate its whole-stream case, and
# FuzzInflate holds both to compress/flate's reader; that reader back in
# program code is a second decoder.
if grep -rn 'flate\.NewReader' --include='*.go' --exclude='*_test.go' cmd internal examples bench ./*.go | grep -v '^internal/deflate/'; then
	echo "a second DEFLATE decoder is back outside internal/deflate"
	exit 1
fi

echo "== one deflate (no flate.NewWriter in non-test Go) =="
# Every segment block — build output, checkpoint generation, snapshot — is
# written by deflate.Deflate, which FuzzDeflate holds to both decoders;
# shuffle frames are record logs and are not compressed.
if grep -rn 'flate\.NewWriter' --include='*.go' --exclude='*_test.go' cmd internal examples bench ./*.go; then
	echo "a second DEFLATE encoder is back"
	exit 1
fi

echo "== one record codec (no fixed-width PositionRecord encoder or decoder outside internal/pipeline/recordlog.go) =="
# A position record crosses a disk or a socket — a WAL entry, /v1/repl,
# checkpoint state, a shuffle frame — as record-log bytes; its fields
# written or read as raw float bits anywhere else are a second spelling of
# the record.
if grep -rnE 'Float64(bits|frombits)\([^)]*(Pos\.(Lat|Lng)|SOG|COG|Heading)|\{[^}]*Pos\.Lat, [^}]*SOG|(Lat|Lng|SOG|COG|Heading): *[a-z]+\.(f64|u64)\(' --include='*.go' --exclude='*_test.go' cmd internal examples ./*.go |
	grep -v '^internal/pipeline/recordlog\.go:'; then
	echo "a fixed-width position record codec is back outside internal/pipeline/recordlog.go"
	exit 1
fi

echo "== one reduce (no generic by-key aggregate or key hasher; no unsafe) =="
# The batch build, the live engine and the cluster coordinator reduce the
# same way: observations fold into an inventory with Observe, partials merge
# in a fixed order. A by-key aggregate or a generic key hasher back in
# program code is a second reduce; unsafe has no use in this program.
if grep -rnE 'AggregateByKey|HasherFor|HashKey|"unsafe"' --include='*.go' --exclude='*_test.go' cmd internal examples ./*.go; then
	echo "a second reduce, a generic key hasher or an unsafe import is back"
	exit 1
fi

echo "== flat sketches (no map in non-test Go under internal/stats) =="
# An inventory holds ten sketches per group: each is a fixed array or one
# slice (BenchmarkSummaryFootprint weighs them); a map back in a sketch is a
# hash table per group on the live heap again.
if grep -n 'map\[' internal/stats/*.go | grep -v '_test\.go:'; then
	echo "a map is back in a sketch under internal/stats"
	exit 1
fi

echo "== line budget (non-test Go outside bench/, ROADMAP's measure) =="
# Lower it when a PR deletes; raising it needs the ROADMAP's say-so.
budget=26211
lines="$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l)"
if [ "$lines" -gt "$budget" ]; then
	echo "non-test Go outside bench/ is $lines lines, budget $budget"
	exit 1
fi

echo "== flag budget (flag definitions under cmd/ and examples/) =="
# A flag no script, test, doc or drill sets becomes its default; raising
# the count needs the ROADMAP's say-so.
flag_budget=76
flags="$(grep -rhoE 'flag\.(String|Int|Int64|Bool|Duration|Float64|Uint64|Var|Func)\(' cmd examples | wc -l)"
if [ "$flags" -gt "$flag_budget" ]; then
	echo "cmd/ and examples/ define $flags flags, budget $flag_budget"
	exit 1
fi

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== paper section (polbench at the reference scale, diffed against EXPERIMENTS.md) =="
# EXPERIMENTS.md's paper section is polbench's stdout, regenerated and never
# edited: a failed check (exit 1) or any drift fails here. Figures go to a
# temporary directory so the tree stays clean.
paper="$(mktemp -d)"
go run ./cmd/polbench -exp all -vessels 150 -days 30 -seed 1 -out "$paper" >"$paper/section.md"
sed -n '/^<!-- polbench:begin -->$/,/^<!-- polbench:end -->$/p' EXPERIMENTS.md | sed '1d;$d' | diff -u - "$paper/section.md"
rm -rf "$paper"

echo "== go test -race (concurrent packages) =="
go test -race -count=1 -timeout 20m ./internal/api/ ./internal/cluster/ ./internal/dataflow/ ./internal/ingest/ ./internal/inventory/ ./internal/obs/ ./internal/obs/trace/ ./internal/replica/ ./internal/segment/ ./internal/stats/

echo "== fuzz smoke (5 s per target; corpora under <package>/testdata/fuzz) =="
for target in ingest/FuzzReadReplChunk ingest/FuzzOpenJournal ingest/FuzzDecodeState \
	ingest/FuzzParseManifestLine replica/FuzzTermFile \
	cluster/FuzzReadFrame cluster/FuzzPeerFrame ais/FuzzDecoderFeed \
	inventory/FuzzDecodeCellSummary inventory/FuzzSealedShard segment/FuzzLoadBytes segment/FuzzSegmentLookup \
	api/FuzzAppendJSONString \
	obs/trace/FuzzParseTraceparent deflate/FuzzInflate deflate/FuzzDeflate pipeline/FuzzRecordLog; do
	go test -run='^$' -fuzz="^${target##*/}\$" -fuzztime=5s "./internal/${target%/*}/"
done

echo "== benchmark harness tests (bench/ is its own module) =="
(cd bench && go test ./...)

echo "== benchmark smoke (snapshot publish) =="
go test -run='^$' -bench=Publish -benchtime=1x ./internal/inventory/

echo "== benchmark smoke (segment write/open/lookup round trip) =="
go test -run='^$' -bench=Segment -benchtime=1x ./internal/segment/

echo "== benchmark smoke (live path: pump, primary, ReplHandler, replica applier) =="
go test -run='^$' -bench=PumpToReplica -benchtime=1x ./internal/replica/

echo "== benchmark smoke (api handlers per route: ns/op, allocs/op) =="
go test -run='^$' -bench=Handlers -benchtime=1x ./internal/api/

echo "== benchmark smoke (shuffle frame: seal + open, local delivery; ns and allocs per record) =="
go test -run='^$' -bench=ShuffleFrame -benchtime=1x ./internal/cluster/

e2e

echo "all checks passed"
