// Package sweep is the parallel design-space exploration engine: the
// programmatic version of the search Section 4.5 of Zhuo & Prasanna's
// "Hardware/Software Co-Design for Matrix Computations on
// Reconfigurable Computing Systems" (IPDPS 2007) performs by hand when
// it picks the published (Of, Ff, b, l) design points.
//
// A Grid declares axes over machine presets, node counts, problem and
// block sizes, PE-array widths, partition overrides and design modes;
// its cross product is enumerated in a deterministic order and each
// Point is evaluated either with the closed-form design model
// (Equations 1-6 plus the Section 4.5 predictor, microseconds per
// point; the model half of the app's internal/core registry row) or
// with the full discrete-event simulation in internal/core
// (MethodSim, which also reports the measured bottleneck from
// internal/analysis and the telemetry overlap efficiency).
//
// Run schedules the points on a bounded, context-cancellable worker
// pool sized by runtime.GOMAXPROCS. Shared sub-problems — the pseudo
// place-and-route of a PE array on a device, and the Equation 1/4/5/6
// partition solves — are memoized under a lock so each distinct
// sub-problem is computed exactly once per sweep. Outcomes land in a
// slice indexed by Point.Index, so the Result (and its JSON/CSV
// serializations) is byte-identical across worker counts and
// schedules.
//
// The reduction step marks the Pareto frontier (maximize GFLOPS,
// minimize FPGA slices and DRAM bandwidth demand) and builds
// per-axis sensitivity tables. cmd/sweep exposes the engine on the
// command line; internal/exper uses it to regenerate the paper's
// design-selection narrative.
package sweep
