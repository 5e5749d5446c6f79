// Package repro is a from-scratch Go reproduction of "Dynamic
// Quarantine of Internet Worms" (Wong, Wang, Song, Bielski, Ganger —
// DSN 2004 / CMU-PDL-03-108): the paper's analytical epidemic models,
// a packet-level worm-propagation simulator with rate-limited links,
// the campus-trace case study (synthetic substitute for the CMU ECE
// traces), and a harness that regenerates every figure of the paper's
// evaluation.
//
// Entry points:
//
//   - internal/spec      — the scenario spec (topology × worm × defense
//     stack × quarantine × immunization × trace-replay workload, which
//     drives the engine from flow records), lowered onto the simulator
//   - internal/core      — run options and core.Run, one replica batch
//   - internal/model     — the paper's closed-form/ODE models (§3-6)
//   - internal/sim       — the discrete-event simulator (§5.4), with a
//     trace-replay workload seam (§17) beside the β-draw generator
//   - internal/trace     — the trace generator + analyzer + streaming
//     replayer (§7)
//   - internal/experiment — per-figure regeneration (Figures 1-10, the
//     ablations, and the collateral-damage figure)
//   - cmd/figures, cmd/wormsim, cmd/wormmodel, cmd/tracegen,
//     cmd/traceanalyze — command-line tools
//
// Every run is deterministic by construction — one serial tick loop
// over per-node RNG streams, with replica-level (-jobs) parallelism
// that never changes a result (DESIGN.md §12) — and the
// simulator scales to million-host two-level topologies without an
// O(N²) routing table (DESIGN.md §9, `make bench-scale`).
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured numbers. The benchmarks in
// bench_test.go regenerate each figure (go test -bench=Fig -benchtime 1x).
package repro
