package sim

import "fmt"

// Fused charge sequences and tasks.
//
// The scheduler pays ~320 ns for every cross-process handoff (two
// coroutine switches) but only ~40 ns for a self-resume, on a 2-vCPU
// x86-64 host (BenchmarkEventLoopHandoff/raw vs BenchmarkEventLoopSelf).
// A simulated process that charges several consecutive intervals —
// unpack, DMA, then compute on a node's CPU, say — parks once per
// interval, and every park is a potential handoff. UseSeq and WaitSeq
// fuse such a sequence into a single park: the process parks once, and
// the engine advances the intermediate charge boundaries itself, in
// scheduler context, emitting exactly the events, spans, and resource
// accounting the equivalent loop of UseCat/WaitSpanOn calls would have
// produced.
//
// A task (Engine.Task) goes one step further: a process whose whole
// body is a fixed charge sequence followed by a non-blocking
// completion hook never needs a coroutine at all. The engine runs it
// from its first event to its last with the same state machine, so it
// costs no coroutine switch, no pool traffic and no handoff.
//
// Simulated time, span streams, and utilization integrals are
// byte-identical to the unfused bodies; only the coroutine switch
// count drops (measured by Counters.FusedSteps).
//
// Determinism argument: at an unfused boundary the process resumes on
// its own event pop and immediately schedules its next wait, so the
// sequence number it draws equals the one a scheduler-context
// reschedule at the same pop would draw. The fused path performs that
// reschedule inline at the pop, therefore every queued event keeps the
// identical (t, seq) it had before — the total order of the run cannot
// change. A task's first event is the pop that would have started its
// body, and its last is the pop that would have resumed the body for
// its final span, release and completion hook; both run inline at the
// same pop, so the argument covers them too. A charge's dilation hook
// is called at the pop where the unfused body would call it, so hooks
// with side effects see the same calls in the same order.

// Charge is one interval of a fused sequence or task: dt seconds of
// activity attributed to a span category, carrying bytes of payload
// for data-movement categories (0 for compute). Negative durations are
// treated as 0, matching WaitSpanOn.
type Charge struct {
	// Cat classifies the interval (compute, dma, network, ...).
	Cat Category
	// Bytes is the payload a data-movement charge carried (0 otherwise).
	Bytes int64
	// Dt is the interval's nominal duration in virtual seconds.
	Dt float64
	// Res is the resource a task's charge holds; nil runs the charge
	// resource-free, attributed to the task's device and resource
	// name. UseSeq and WaitSeq ignore it.
	Res *Resource
	// Dilate, when non-nil, maps the nominal Dt to the duration
	// actually charged. It is called with the charge's category at the
	// virtual time the charge is requested: when the sequence starts
	// or the previous charge ends, before any queueing for Res.
	Dilate func(cat Category, start, dt float64) float64
}

// dilated returns the duration the charge holds when requested at
// virtual time start.
func (c *Charge) dilated(start float64) float64 {
	if c.Dilate == nil {
		return c.Dt
	}
	return c.Dilate(c.Cat, start, c.Dt)
}

// chainCap bounds the per-process sequence buffer. UseSeq and WaitSeq
// fall back to the unfused per-charge loop past it — correct, just
// with more handoffs; a task cannot be longer. The buffer lives inline
// in Proc so fusing allocates nothing.
const chainCap = 4

// UseSeq behaves exactly like calling r.UseCat(p, c.Cat, c.Bytes, dt)
// for each charge in order, with dt the charge's dilated duration —
// including per-charge acquire/release bracketing, FIFO queueing under
// contention, and one typed span per charge — but parks the calling
// process only once for the whole sequence. The intermediate
// boundaries run in scheduler context, so a sequence of n charges
// costs one handoff instead of n.
func (r *Resource) UseSeq(p *Proc, charges []Charge) {
	switch {
	case len(charges) == 0:
		return
	case len(charges) > chainCap:
		for i := range charges {
			r.UseCat(p, charges[i].Cat, charges[i].Bytes, charges[i].dilated(p.eng.now))
		}
		return
	}
	p.loadChain(r.device, r.name, charges, r)
	r.Acquire(p)
	p.runChain()
}

// WaitSeq is the resource-free analogue of UseSeq: it behaves exactly
// like calling p.WaitSpanOn(c.Cat, dev, resource, c.Bytes, dt) for
// each charge in order, but parks only once. Use it for consecutive
// charges that do not contend on a Resource.
func (p *Proc) WaitSeq(dev Device, resource string, charges []Charge) {
	switch {
	case len(charges) == 0:
		return
	case len(charges) > chainCap:
		for i := range charges {
			p.WaitSpanOn(charges[i].Cat, dev, resource, charges[i].Bytes, charges[i].dilated(p.eng.now))
		}
		return
	}
	p.loadChain(dev, resource, charges, nil)
	p.runChain()
}

// Task spawns a process whose whole body is charges, in order, followed
// by the completion hook then (nil for none). It behaves exactly like
//
//	e.Go(name, func(p *Proc) {
//		p.SetPhase(phase)
//		for each charge c: with dt its dilated duration,
//			c.Res.UseCat(p, c.Cat, c.Bytes, dt), or, when c.Res is nil,
//			p.WaitSpanOn(c.Cat, dev, resource, c.Bytes, dt)
//		then()
//	})
//
// — the same events, spans, resource accounting and deadlock reports —
// but the engine advances it from its first event to its last in
// scheduler context, without a coroutine. then must not block; it runs
// in scheduler context, and a panic in it fails the run as a panic in
// the process body would. At most chainCap charges are allowed.
func (e *Engine) Task(name, phase string, dev Device, resource string, charges []Charge, then func()) *Proc {
	if len(charges) > chainCap {
		panic(fmt.Sprintf("sim: task %q has %d charges, more than %d", name, len(charges), chainCap))
	}
	p := e.spawn(e.now, name, nil)
	p.task = true
	p.then = then
	p.phase = phase
	p.chainLen = int8(copy(p.chainBuf[:], charges))
	p.chainDev, p.chainResName = dev, resource
	p.chainIdx = -1 // not started
	p.chainLive = true
	return p
}

// loadChain copies a process's sequence into the inline buffer, every
// charge on r (nil: resource-free on dev/resource), and dilates the
// first charge: its request is now, before the caller acquires r.
func (p *Proc) loadChain(dev Device, resource string, charges []Charge, r *Resource) {
	p.chainLen = int8(copy(p.chainBuf[:], charges))
	for i := range p.chainLen {
		p.chainBuf[i].Res = r
	}
	p.chainDev, p.chainResName = dev, resource
	p.chainAcquiring = false
	c := &p.chainBuf[0]
	c.Dt = c.dilated(p.eng.now)
}

// runChain begins the loaded sequence's first hold (the caller holds
// its resource, if any) and parks until the engine has driven every
// boundary; on return it emits the final charge's span and releases
// the final charge's resource.
func (p *Proc) runChain() {
	e := p.eng
	p.chainIdx = 0
	p.chainLive = true
	dt := p.chainBuf[0].Dt
	if dt < 0 {
		dt = 0
	}
	p.chainStart = e.now
	e.scheduleProc(e.now+dt, p)
	p.park(parkWait, nil, dt)
	// The final boundary resumed us; the engine already emitted the
	// spans of every earlier charge.
	last := &p.chainBuf[p.chainLen-1]
	e.chainSpan(p, last)
	if last.Res != nil {
		last.Res.Release()
	}
}

// step advances p's sequence at one of its events (see chainStep). A
// panic in a charge's dilation hook or a task's completion hook fails
// the run, attributed to p as a panic in its body would be; dispatch
// then stops.
func (e *Engine) step(p *Proc) (consumed bool) {
	defer func() {
		if v := recover(); v != nil {
			if e.failure == nil {
				e.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, v)
			}
			consumed = true
		}
	}()
	return e.chainStep(p)
}

// chainStep advances a sequence at one of its events, in scheduler
// context. It returns true when the event is consumed (dispatch keeps
// popping) and false at an ordinary process's final boundary, where
// dispatch resumes the process normally. A task consumes every one of
// its events. Every emitted event, span, and piece of resource
// bookkeeping mirrors what the unfused body does at the same virtual
// time.
func (e *Engine) chainStep(p *Proc) bool {
	if p.chainIdx < 0 {
		// A task's first event: its body starts, and from here on it
		// is parked between its events until it finishes.
		e.emitEvent(e.now, p.name, "resume")
		p.chainIdx = 0
		if p.chainLen > 0 {
			p.blocked = true
			e.nblocked++
		}
		e.chainNext(p)
		return true
	}
	if p.chainAcquiring {
		// This pop is the unit grant Release scheduled for us while we
		// queued: replicate Acquire's post-park bookkeeping, then start
		// the pending charge's hold.
		p.chainAcquiring = false
		r := p.chainBuf[p.chainIdx].Res
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
		if !p.task {
			p.chainLive = false
			return false
		}
		p.blocked = false
		e.nblocked--
	}
	e.emitEvent(e.now, p.name, "resume")
	c := &p.chainBuf[p.chainIdx]
	e.chainSpan(p, c)
	if c.Res != nil {
		c.Res.Release()
	}
	p.chainIdx++
	e.chainNext(p)
	return true
}

// chainNext requests charge chainIdx, or finishes a task whose charges
// are all done: mark it done, then run its completion hook.
func (e *Engine) chainNext(p *Proc) {
	if p.chainIdx < p.chainLen {
		e.chainRequest(p)
		return
	}
	p.chainLive = false
	p.done = true
	if then := p.then; then != nil {
		p.then = nil
		then()
	}
}

// chainRequest requests charge chainIdx at the current time: dilate
// it, then acquire its resource — starting the hold, or queueing
// exactly as Acquire would — or, resource-free, start the hold.
func (e *Engine) chainRequest(p *Proc) {
	c := &p.chainBuf[p.chainIdx]
	c.Dt = c.dilated(e.now)
	r := c.Res
	if r == nil {
		e.chainHold(p)
		return
	}
	r.acquires++
	if r.inUse < r.capacity {
		r.accumulate()
		r.inUse++
		e.chainHold(p)
		return
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
}

// chainSpan emits charge c's span, ending now: on c's resource, or on
// the sequence's device and resource name when c is resource-free.
func (e *Engine) chainSpan(p *Proc, c *Charge) {
	if !e.observing() {
		return
	}
	dev, name := p.chainDev, p.chainResName
	if c.Res != nil {
		dev, name = c.Res.device, c.Res.name
	}
	e.EmitSpan(SpanEvent{
		Category: c.Cat, Device: dev, Proc: p.name, Resource: name,
		Phase: p.phase, Bytes: c.Bytes, Start: p.chainStart, End: e.now,
	})
}
