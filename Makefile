# Convenience targets. The check suite (gofmt, vet, build, test, the -race
# package list, benchmark smokes, e2e drills) is spelled once, in
# scripts/check.sh; `make check` and CI both run that file.

GO ?= go

.PHONY: check build test vet fmt bench e2e

check:
	./scripts/check.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# End-to-end smokes: the loopback cluster (coordinator + two workers, one
# killed mid-task), the durability chaos drill (crash mid-checkpoint
# rename, permanently failing journal disk, recovery convergence), the
# replicated-serving drill (primary + two read replicas, one killed and
# re-bootstrapped mid-feed, bit-exact convergence), and the failover drill
# (primary killed mid-feed, replica promoted with epoch fencing, stale
# primary fenced on restart).
e2e:
	./scripts/cluster_e2e.sh
	./scripts/chaos_e2e.sh
	./scripts/replica_e2e.sh
	./scripts/failover_e2e.sh

# The repository's benchmark (BENCHMARK.json, bench/README.md): all five
# workloads, untraced and traced, on seed 1.
bench:
	bash bench/run.sh -seed 1
