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

# The end-to-end drills alone (cluster, chaos, replica, failover); the list
# lives in scripts/check.sh.
e2e:
	./scripts/check.sh e2e

# The repository's benchmark (BENCHMARK.json, bench/README.md): all five
# workloads, untraced and traced, on seed 1.
bench:
	bash bench/run.sh -seed 1
