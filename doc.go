// Package pol is the root of the Patterns-of-Life reproduction: a global
// inventory of maritime mobility patterns built from AIS vessel-tracking
// data over a hexagonal discrete global grid, as described in
// "Patterns of Life: Global Inventory for maritime mobility patterns"
// (EDBT 2024).
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory), the command-line tools under cmd/, and runnable examples
// under examples/. `go run ./cmd/polbench -exp all` regenerates every
// table and figure of the paper's evaluation as EXPERIMENTS.md's paper
// section and exits 1 when a claim's check fails; the ablations of
// DESIGN.md §6 are the benchmarks in ablation_bench_test.go.
package pol
