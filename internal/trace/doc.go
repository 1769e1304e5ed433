// Package trace records simulation activity for inspection. Its
// consumers are sim.Observers. The Collector keeps the raw (time, proc,
// action) events and renders a text timeline or CSV. The Recorder
// buffers whole typed spans for the consumers that read them after the
// run: span persistence, the Perfetto and CSV exporters, the critical
// path and tracediff. Two observers fold each span as it is emitted and
// store none: the Digest keeps the overlap sweep's edges and per-phase
// totals, for callers (the design-space sweep) that need nothing else,
// and the Summarizer builds a run's Summary (and its metrics CSV) on
// top of an embedded Digest.
//
// The overlap report decomposes a run's makespan into exposed
// Tf/Tp/Tmem/Tcomm components — the measured counterparts of the
// Section 4.5 model terms, quantifying how much of the data movement
// the overlap assumption actually hid. A run with Telemetry enabled
// attaches a Summary built by a Summarizer; the sweep engine's
// OverlapEfficiency column comes from a Digest.
package trace
