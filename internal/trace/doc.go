// Package trace records simulation activity for inspection. Its
// consumers are sim.Observers: the Collector keeps the raw (time, proc,
// action) events and renders a text timeline or CSV, while the
// Recorder captures typed spans for the run Summary (and its metrics
// CSV), the overlap report, span persistence and the Perfetto exporter.
// The Digest is the storage-free observer: it folds each span into the
// overlap sweep's edges and per-phase totals as it is emitted, for
// callers (the design-space sweep) that need nothing else.
//
// The overlap report decomposes a run's makespan into exposed
// Tf/Tp/Tmem/Tcomm components — the measured counterparts of the
// Section 4.5 model terms, quantifying how much of the data movement
// the overlap assumption actually hid. A run with Telemetry enabled
// attaches a Summary built by Recorder.Summarize, not a Digest; the
// sweep engine's OverlapEfficiency column comes from a Digest.
package trace
