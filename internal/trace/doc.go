// Package trace records simulation activity for inspection. Two
// consumers plug into the engine: the legacy Collector attaches to the
// raw (time, proc, action) trace hook and renders a text timeline or
// CSV, while the Recorder implements sim.Observer and captures typed
// spans for the run summary (and its metrics CSV), the overlap report,
// span persistence and the Perfetto exporter.
//
// The overlap report decomposes a run's makespan into exposed
// Tf/Tp/Tmem/Tcomm components — the measured counterparts of the
// Section 4.5 model terms, quantifying how much of the data movement
// the overlap assumption actually hid. Summaries attach to every run
// result when Telemetry is enabled and feed the sweep engine's
// OverlapEfficiency column.
package trace
