package sim

import "codesign/internal/obs"

// Publish registers one live-reading gauge per counter field on r,
// under the sim_* namespace. The gauges are obs.Func bridges over the
// atomics, so scraping /metrics always sees current values with no
// copying or extra hot-path work; the _total suffix marks them as
// monotonically non-decreasing even though they expose as gauges.
// Publish is cheap and idempotent per registry, but registering two
// different Counters on one registry panics (duplicate names).
func (c *Counters) Publish(r *obs.Registry) {
	r.Func("sim_events_popped_total", "events popped off engine queues",
		func() float64 { return float64(c.EventsPopped.Load()) })
	r.Func("sim_callbacks_total", "scheduler-context callbacks run inline",
		func() float64 { return float64(c.Callbacks.Load()) })
	r.Func("sim_handoffs_total", "resumes of a process other than the one that parked",
		func() float64 { return float64(c.Handoffs.Load()) })
	r.Func("sim_self_resumes_total", "self-resume fast-path hits (no coroutine switch)",
		func() float64 { return float64(c.SelfResumes.Load()) })
	r.Func("sim_fused_steps_total", "fused charge-sequence boundaries advanced without a park",
		func() float64 { return float64(c.FusedSteps.Load()) })
	r.Func("sim_spawns_total", "simulation processes started",
		func() float64 { return float64(c.Spawns.Load()) })
	r.Func("sim_queue_recycles_total", "event-queue arrays recycled through the pool",
		func() float64 { return float64(c.QueueRecycles.Load()) })
	r.Func("sim_compactions_total", "in-place ring-FIFO compactions",
		func() float64 { return float64(c.Compactions.Load()) })
	r.Func("sim_spans_total", "telemetry spans delivered to observers",
		func() float64 { return float64(c.SpansEmitted.Load()) })
}
