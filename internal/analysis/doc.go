// Package analysis turns the simulator's typed span stream into
// actionable performance attribution: the critical path through a run,
// per-resource utilization timelines, and a bottleneck classifier that
// names the Section 4.1 model parameter (Of·Ff, Op·Fp, Bd or Bn)
// binding each phase and checks it against the analytic model's
// prediction — the measured counterpart of the balance arguments
// behind Equations (1), (4) and (6).
//
// It also defines the JSON baseline format the benchmark-regression
// harness (cmd/experiments -bench-json / -check) uses, and feeds the
// design-space sweep (internal/sweep), which classifies each simulated
// point's dominant phase through DigestPhases, on the trace.Digest its
// simulation folded its spans into.
package analysis
