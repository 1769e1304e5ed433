package sim

// Fused charge sequences.
//
// The scheduler pays ~320 ns for every cross-process handoff (two
// coroutine switches) but only ~40 ns for a self-resume, on a 2-vCPU
// x86-64 host (BenchmarkEventLoopHandoff/raw vs BenchmarkEventLoopSelf).
// A simulated process that charges several consecutive intervals to
// one resource — unpack, DMA, then compute on a node's CPU, say —
// parks once per interval, and every park is a potential handoff.
// UseSeq and WaitSeq fuse such a sequence into a single park: the
// process parks once, and the engine advances the intermediate charge
// boundaries itself, in scheduler context, emitting exactly the events,
// spans, and resource accounting the equivalent loop of
// UseCat/WaitSpanOn calls would have produced.
// Simulated time, span streams, and utilization integrals are
// byte-identical; only the coroutine switch count drops (measured by
// Counters.FusedSteps).
//
// Determinism argument: at an unfused boundary the process resumes on
// its own event pop and immediately schedules its next wait, so the
// sequence number it draws equals the one a scheduler-context
// reschedule at the same pop would draw. The fused path performs that
// reschedule inline at the pop, therefore every queued event keeps the
// identical (t, seq) it had before — the total order of the run cannot
// change.

// Charge is one interval of a fused sequence: dt seconds of activity
// attributed to a span category, carrying bytes of payload for
// data-movement categories (0 for compute). Negative durations are
// treated as 0, matching WaitSpanOn.
type Charge struct {
	// Cat classifies the interval (compute, dma, network, ...).
	Cat Category
	// Bytes is the payload a data-movement charge carried (0 otherwise).
	Bytes int64
	// Dt is the interval's duration in virtual seconds.
	Dt float64
}

// chainCap bounds the per-process fused-sequence buffer. Sequences
// longer than this fall back to the unfused per-charge loop — correct,
// just with more handoffs. The buffer lives inline in Proc so fusing
// allocates nothing.
const chainCap = 4

// UseSeq behaves exactly like calling r.UseCat(p, c.Cat, c.Bytes, c.Dt)
// for each charge in order — including per-charge acquire/release
// bracketing, FIFO queueing under contention, and one typed span per
// charge — but parks the calling process only once for the whole
// sequence. The intermediate boundaries run in scheduler context, so a
// sequence of n charges costs one handoff instead of n.
func (r *Resource) UseSeq(p *Proc, charges []Charge) {
	switch {
	case len(charges) == 0:
		return
	case len(charges) == 1:
		r.UseCat(p, charges[0].Cat, charges[0].Bytes, charges[0].Dt)
		return
	case len(charges) > chainCap:
		for _, c := range charges {
			r.UseCat(p, c.Cat, c.Bytes, c.Dt)
		}
		return
	}
	r.Acquire(p)
	p.chainRes = r
	p.startChain(r.device, r.name, charges)
	r.Release()
}

// WaitSeq is the resource-free analogue of UseSeq: it behaves exactly
// like calling p.WaitSpanOn(c.Cat, dev, resource, c.Bytes, c.Dt) for
// each charge in order, but parks only once. Use it for consecutive
// charges that do not contend on a Resource.
func (p *Proc) WaitSeq(dev Device, resource string, charges []Charge) {
	switch {
	case len(charges) == 0:
		return
	case len(charges) == 1:
		p.WaitSpanOn(charges[0].Cat, dev, resource, charges[0].Bytes, charges[0].Dt)
		return
	case len(charges) > chainCap:
		for _, c := range charges {
			p.WaitSpanOn(c.Cat, dev, resource, c.Bytes, c.Dt)
		}
		return
	}
	p.chainRes = nil
	p.startChain(dev, resource, charges)
}

// startChain begins the fused sequence's first hold and parks until the
// engine has driven every boundary; on return it emits the final
// charge's span. The caller brackets with Acquire/Release when a
// resource is involved (chainRes non-nil lets the engine re-bracket the
// intermediate boundaries).
func (p *Proc) startChain(dev Device, resource string, charges []Charge) {
	e := p.eng
	p.chainLen = copy(p.chainBuf[:], charges)
	p.chainIdx = 0
	p.chainDev = dev
	p.chainResName = resource
	p.chainAcquiring = false
	p.chainLive = true
	dt := charges[0].Dt
	if dt < 0 {
		dt = 0
	}
	p.chainStart = e.now
	e.scheduleProc(e.now+dt, p)
	p.park(parkWait, nil, dt)
	// The final boundary resumed us; the engine already emitted the
	// spans of every earlier charge.
	last := p.chainBuf[p.chainLen-1]
	if e.observing() {
		e.EmitSpan(SpanEvent{
			Category: last.Cat, Device: dev, Proc: p.name, Resource: resource,
			Phase: p.phase, Bytes: last.Bytes, Start: p.chainStart, End: e.now,
		})
	}
	p.chainRes = nil
}

// chainStep advances a fused charge sequence at one of its boundary
// events, in scheduler context. It returns true when the chain
// continues (the event is consumed; dispatch keeps popping) and false
// at the final boundary, where dispatch resumes the process normally.
// Every emitted event, span, and piece of resource bookkeeping mirrors
// what the unfused per-charge loop does at the same virtual time.
func (e *Engine) chainStep(p *Proc) bool {
	r := p.chainRes
	if p.chainAcquiring {
		// This pop is the unit grant Release scheduled for us while we
		// queued: replicate Acquire's post-park bookkeeping, then start
		// the pending charge's hold.
		p.chainAcquiring = false
		e.emitEvent(e.now, p.name, "resume")
		waited := e.now - p.chainSince
		r.waitInt += waited
		r.waits++
		if waited > 0 && e.observing() {
			e.EmitSpan(SpanEvent{
				Category: CatSync, Device: r.device, Proc: p.name, Resource: r.name,
				Phase: p.phase, Start: p.chainSince, End: e.now,
			})
		}
		e.chainHold(p)
		return true
	}
	// A hold boundary: charge chainIdx just finished.
	if p.chainIdx == p.chainLen-1 {
		p.chainLive = false
		return false
	}
	e.emitEvent(e.now, p.name, "resume")
	c := p.chainBuf[p.chainIdx]
	if e.observing() {
		e.EmitSpan(SpanEvent{
			Category: c.Cat, Device: p.chainDev, Proc: p.name, Resource: p.chainResName,
			Phase: p.phase, Bytes: c.Bytes, Start: p.chainStart, End: e.now,
		})
	}
	p.chainIdx++
	if r == nil {
		e.chainHold(p)
		return true
	}
	r.Release()
	// Re-acquire for the next charge without leaving scheduler context.
	r.acquires++
	if r.inUse < r.capacity {
		r.accumulate()
		r.inUse++
		e.chainHold(p)
		return true
	}
	// Saturated: queue exactly as Acquire would, recording the park
	// reason so deadlock reports and traces read identically.
	r.enqueue(p)
	p.chainSince = e.now
	p.chainAcquiring = true
	p.parkKind, p.parkWhy, p.parkDur = parkOn, r.why, 0
	if e.observing() {
		e.emitEvent(e.now, p.name, r.why.action)
	}
	return true
}

// chainHold starts the hold of charge chainIdx: schedule the boundary,
// record the park reason, and emit the block event the unfused Wait
// would have emitted.
func (e *Engine) chainHold(p *Proc) {
	dt := p.chainBuf[p.chainIdx].Dt
	if dt < 0 {
		dt = 0
	}
	p.chainStart = e.now
	e.scheduleProc(e.now+dt, p)
	p.parkKind, p.parkWhy, p.parkDur = parkWait, nil, dt
	if e.observing() {
		e.emitEvent(e.now, p.name, e.waitReason(parkWait, dt).action)
	}
	if e.ctr != nil {
		e.ctr.FusedSteps.Add(1)
	}
}
