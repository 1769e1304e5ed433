package sim

import "sync/atomic"

// Counters aggregates engine-loop event counts. A single Counters may
// be shared by many engines at once (a sweep's worker pool runs one
// engine per in-flight grid point), so every field is atomic; reads
// are cheap snapshots at any moment.
//
// Counting is strictly opt-in and zero-cost when disabled: an engine
// whose counter sink is nil (the default) executes no atomic
// operations and constructs nothing on the hot path — only a nil check
// per site, which is what keeps BENCH_baseline.json byte-identical and
// the cmd/perfcheck gate green. Install a sink per engine with
// Engine.SetCounters or process-wide with InstallCounters.
//
// The handoff/self-resume split directly measures the scheduler cost:
// a handoff resumes a different process, two coroutine switches
// through Engine.Run, while a self-resume is a function return, so
// Handoffs/(Handoffs+SelfResumes) is the fraction of events paying the
// expensive path.
type Counters struct {
	// EventsPopped counts events popped off engine queues.
	EventsPopped atomic.Int64
	// Callbacks counts scheduler-context callbacks run inline.
	Callbacks atomic.Int64
	// Handoffs counts resumes of a process other than the one that
	// parked (the coroutine-switch path).
	Handoffs atomic.Int64
	// SelfResumes counts self-resume fast-path hits: the parking
	// process was the next runnable one, so nothing switched.
	SelfResumes atomic.Int64
	// FusedSteps counts process events the engine advanced in
	// scheduler context instead of resuming the process: each
	// intermediate boundary of a fused sequence (see Resource.UseSeq),
	// including the grant of a resource it queued on, and every event
	// of a task (see Engine.Task) — its start, boundaries, grants and
	// finish. Each one replaced a resume that would otherwise have been
	// a handoff or self-resume, so every popped event is exactly one of
	// a callback, a handoff, a self-resume or a fused step.
	FusedSteps atomic.Int64
	// Spawns counts processes started.
	Spawns atomic.Int64
	// QueueRecycles counts event-queue backing arrays returned to the
	// engine pool for reuse by a later engine.
	QueueRecycles atomic.Int64
	// Compactions counts in-place ring-FIFO compactions (mailbox
	// message/waiter queues and resource waiter queues under
	// persistent backlog).
	Compactions atomic.Int64
	// SpansEmitted counts typed telemetry spans delivered to
	// observers.
	SpansEmitted atomic.Int64
}

// CounterSnapshot is a plain-value copy of a Counters at one instant.
type CounterSnapshot struct {
	// EventsPopped mirrors Counters.EventsPopped.
	EventsPopped int64
	// Callbacks mirrors Counters.Callbacks.
	Callbacks int64
	// Handoffs mirrors Counters.Handoffs.
	Handoffs int64
	// SelfResumes mirrors Counters.SelfResumes.
	SelfResumes int64
	// FusedSteps mirrors Counters.FusedSteps.
	FusedSteps int64
	// Spawns mirrors Counters.Spawns.
	Spawns int64
	// QueueRecycles mirrors Counters.QueueRecycles.
	QueueRecycles int64
	// Compactions mirrors Counters.Compactions.
	Compactions int64
	// SpansEmitted mirrors Counters.SpansEmitted.
	SpansEmitted int64
}

// Snapshot reads every field atomically (though not as one atomic
// unit: fields may be from slightly different instants while engines
// run, which live monitoring tolerates).
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		EventsPopped:  c.EventsPopped.Load(),
		Callbacks:     c.Callbacks.Load(),
		Handoffs:      c.Handoffs.Load(),
		SelfResumes:   c.SelfResumes.Load(),
		FusedSteps:    c.FusedSteps.Load(),
		Spawns:        c.Spawns.Load(),
		QueueRecycles: c.QueueRecycles.Load(),
		Compactions:   c.Compactions.Load(),
		SpansEmitted:  c.SpansEmitted.Load(),
	}
}

// defaultCounters is the process-wide sink New engines inherit.
var defaultCounters atomic.Pointer[Counters]

// InstallCounters sets the process-wide counter sink that every engine
// created by New from now on inherits — the hook cmd/sweep -obs uses
// to watch engines that are constructed deep inside core.Run* where no
// per-engine handle is reachable. Pass nil to restore the default
// (counting off). Engines already built keep their current sink.
func InstallCounters(c *Counters) {
	defaultCounters.Store(c)
}

// SetCounters installs (or, with nil, removes) this engine's counter
// sink, overriding any process-wide default. Call it before Run.
func (e *Engine) SetCounters(c *Counters) { e.ctr = c }
