#!/bin/sh
# Repository check suite — the one spelling of it: `make check` and CI both
# run this file. Run from the repository root.
set -e

echo "== gofmt =="
out="$(gofmt -l .)"
if [ -n "$out" ]; then
	echo "gofmt needed on:"
	echo "$out"
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (concurrent packages) =="
go test -race -count=1 -timeout 20m ./internal/cluster/ ./internal/dataflow/ ./internal/ingest/ ./internal/inventory/ ./internal/obs/ ./internal/obs/trace/ ./internal/replica/ ./internal/segment/ ./internal/stats/ ./internal/stream/

echo "== benchmark harness tests (bench/ is its own module) =="
(cd bench && go test ./...)

echo "== benchmark smoke (snapshot publish) =="
go test -run='^$' -bench=Publish -benchtime=1x ./internal/inventory/

echo "== benchmark smoke (segment write/open/lookup round trip) =="
go test -run='^$' -bench=Segment -benchtime=1x ./internal/segment/

echo "== cluster e2e smoke (loopback coordinator + 2 workers, 1 killed) =="
./scripts/cluster_e2e.sh

echo "== chaos e2e (crash mid-checkpoint, dead journal disk, recovery) =="
./scripts/chaos_e2e.sh

echo "== replica e2e (2 replicas, 1 killed mid-feed, bit-exact convergence) =="
./scripts/replica_e2e.sh

echo "== failover e2e (primary killed mid-feed, replica promoted, stale primary fenced) =="
./scripts/failover_e2e.sh

echo "all checks passed"
