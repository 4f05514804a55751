// Package ssmobile is a reproduction of "Operating System Implications of
// Solid-State Mobile Computers" (Cáceres, Douglis, Li and Marsh, HotOS-IV
// 1993): a complete simulated storage organisation for a diskless mobile
// computer — battery-backed DRAM primary storage and direct-mapped flash
// secondary storage in a single-level store — together with the operating
// system layers the paper prescribes and the conventional disk
// organisation it argues against.
//
// The public surface lives in internal/core's checked examples
// (example_test.go), the experiment driver (cmd/ssmsim), the trace tool
// (cmd/ssmtrace), the interactive shell (cmd/ssmfs), the object-storage
// service (cmd/ssmserve), and bench_test.go
// (BenchmarkExperiment/<id> over the experiment table, plus the gated
// serve benchmarks). The implementation packages are under
// internal/; see DESIGN.md for the system inventory and EXPERIMENTS.md for
// the paper-versus-measured record.
package ssmobile
