package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Engine owns the virtual clock and the event queue.
//
// Scheduling is cooperative and single-threaded: every process runs on
// its own runtime coroutine (so its body can block in ordinary Go
// code), and exactly one of them, or Run itself, runs at a time. A
// parking process pops events itself, executing scheduler callbacks
// inline; if it is the next runnable process it simply continues,
// otherwise it yields that process to Run, which resumes it — two
// coroutine switches, no channel and no scheduler pass. Coroutines
// are pooled across processes and engines. A task (see Task) takes no
// coroutine at all: the engine runs its fixed charge sequence itself.
// See DESIGN.md "Engine internals".
type Engine struct {
	now      float64
	seq      int64
	queue    eventQueue
	procs    []*Proc
	nblocked int
	failure  error
	running  bool
	until    float64
	horizon  bool

	observers []Observer

	// ctr, when non-nil, receives engine-loop event counts (see
	// Counters). Nil by default: every counting site is gated on a nil
	// check so an unobserved engine pays nothing.
	ctr *Counters

	// waitReasons caches the formatted "wait %.3gs" / "wait until
	// %.3g" block-reason strings by duration bits, so a traced run
	// pays one fmt.Sprintf per distinct duration instead of one per
	// event. Untraced runs never touch it. waitFront is a
	// direct-mapped cache in front of the map: simulated charges
	// repeat the same handful of durations (stripe times, DMA rates),
	// so most lookups hit here without hashing a map key.
	waitReasons map[waitKey]*parkReason
	waitFront   [waitFrontSize]waitFrontEntry
}

// waitFrontSize is the direct-mapped wait-reason cache size (a power
// of two so the hash reduces with a shift).
const waitFrontSize = 32

// waitFrontEntry is one slot of the direct-mapped wait-reason cache.
type waitFrontEntry struct {
	key waitKey
	why *parkReason
}

// New returns an empty engine with the clock at 0. The engine
// inherits the process-wide counter sink, if InstallCounters set one.
func New() *Engine {
	return &Engine{ctr: defaultCounters.Load()}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// event is one queue entry: a process resume (p != nil) or a
// scheduler-context callback (fn != nil). Events order by (t, seq);
// seq is unique per engine, so the order is a strict total order and
// any heap yields the identical pop sequence.
type event struct {
	t   float64
	seq int64
	p   *Proc
	fn  func()
}

// eventQueue is a binary min-heap of events ordered by (t, seq),
// implemented directly on a slice: pushes and pops stay free of the
// interface boxing container/heap would charge per operation, and
// popped slots are zeroed so the backing array cannot retain process
// pointers or callback closures (a real leak on long runs otherwise).
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

func (q *eventQueue) less(i, j int) bool {
	if q.ev[i].t != q.ev[j].t {
		return q.ev[i].t < q.ev[j].t
	}
	return q.ev[i].seq < q.ev[j].seq
}

func (q *eventQueue) push(ev event) {
	q.ev = append(q.ev, ev)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.ev[i], q.ev[parent] = q.ev[parent], q.ev[i]
		i = parent
	}
}

// pop removes and returns the minimum event, clearing the vacated slot.
func (q *eventQueue) pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev[n] = event{} // do not retain p / fn in the backing array
	q.ev = q.ev[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		child := l
		if r < n && q.less(r, l) {
			child = r
		}
		if !q.less(child, i) {
			break
		}
		q.ev[i], q.ev[child] = q.ev[child], q.ev[i]
		i = child
	}
	return top
}

// reset empties the queue, zeroing every slot so the backing array
// retains no references, and keeps the capacity for reuse.
func (q *eventQueue) reset() {
	for i := range q.ev {
		q.ev[i] = event{}
	}
	q.ev = q.ev[:0]
}

// queuePool recycles event-queue backing arrays across engines: a
// design-space sweep runs hundreds of short simulations, and the grown
// queue of a finished run seeds the next engine's.
var queuePool = sync.Pool{New: func() any { return make([]event, 0, 64) }}

func (e *Engine) schedule(t float64, p *Proc, fn func()) {
	if t < e.now {
		t = e.now
	}
	if e.queue.ev == nil {
		e.queue.ev = queuePool.Get().([]event)
	}
	e.seq++
	e.queue.push(event{t: t, seq: e.seq, p: p, fn: fn})
}

// scheduleProc enqueues a resume of p at time t without allocating.
func (e *Engine) scheduleProc(t float64, p *Proc) { e.schedule(t, p, nil) }

// At schedules fn to run at absolute virtual time t (or now, if t is in
// the past). fn runs in scheduler context and must not block.
func (e *Engine) At(t float64, fn func()) { e.schedule(t, nil, fn) }

// abortError unwinds a parked process when the engine shuts down.
type abortError struct{}

// Park-reason kinds; see Proc.park.
const (
	parkOn    = iota // parked on a primitive carrying its own reason
	parkWait         // Wait(dt): "wait %.3gs"
	parkUntil        // WaitUntil(t): "wait until %.3g"
)

// parkReason is a cached pair of block-reason strings: the bare reason
// (deadlock reports) and its "block: "-prefixed trace action. The
// primitives (Resource, Mailbox, Signal, Barrier) build one at
// construction; wait reasons are interned per duration in the engine's
// cache. Either way the hot path never formats strings.
type parkReason struct {
	reason string
	action string
}

func newParkReason(reason string) *parkReason {
	return &parkReason{reason: reason, action: "block: " + reason}
}

// waitKey interns one wait reason: the park kind plus the duration's
// bit pattern.
type waitKey struct {
	kind int
	bits uint64
}

// waitReasonCacheLimit bounds the interning cache; a simulation with
// more distinct wait durations than this falls back to formatting per
// event (correct, just slower).
const waitReasonCacheLimit = 1 << 14

// waitReason returns the cached (or newly formatted) reason pair for a
// timed wait. Only called on traced runs.
func (e *Engine) waitReason(kind int, d float64) *parkReason {
	key := waitKey{kind: kind, bits: math.Float64bits(d)}
	slot := &e.waitFront[(key.bits^uint64(kind))*0x9E3779B97F4A7C15>>59&(waitFrontSize-1)]
	if slot.why != nil && slot.key == key {
		return slot.why
	}
	r, ok := e.waitReasons[key]
	if !ok {
		r = newParkReason(formatWaitReason(kind, d))
		if e.waitReasons == nil {
			e.waitReasons = make(map[waitKey]*parkReason)
		}
		if len(e.waitReasons) < waitReasonCacheLimit {
			e.waitReasons[key] = r
		}
	}
	*slot = waitFrontEntry{key: key, why: r}
	return r
}

func formatWaitReason(kind int, d float64) string {
	if kind == parkUntil {
		return fmt.Sprintf("wait until %.3g", d)
	}
	return fmt.Sprintf("wait %.3gs", d)
}

// Proc is a simulated process. All Proc methods must be called from the
// process's own function body (they yield to the scheduler).
type Proc struct {
	eng     *Engine
	name    string
	fn      func(p *Proc) // the body; nil once it has returned
	co      *coro         // the coroutine running fn, once started
	done    bool
	aborted bool
	blocked bool
	task    bool   // run wholly by the engine from the chain state below
	pv      any    // recovered panic value, if any
	phase   string // telemetry phase annotation, see SetPhase

	// Why the process is parked, recorded without formatting:
	// parkKind selects the reason family, parkDur the wait duration,
	// parkWhy the primitive's preformatted reason (parkOn only).
	parkKind int
	parkDur  float64
	parkWhy  *parkReason

	// Charge-sequence state (see chain.go): while chainLive, the
	// process is parked once across several charges and the engine
	// advances the boundaries in scheduler context. The buffer is
	// inline so fusing allocates nothing; the small fields are packed
	// so a Proc stays in the 320-byte size class. A task runs wholly
	// from this state; then is its completion hook.
	chainLive      bool
	chainAcquiring bool
	chainLen       int8
	chainIdx       int8 // -1: a task that has not started
	chainBuf       [chainCap]Charge
	chainDev       Device
	chainResName   string
	chainStart     float64
	chainSince     float64
	then           func()
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.eng.now }

// reason formats why the process is blocked (deadlock reports only;
// the trace path uses the cached parkReason instead).
func (p *Proc) reason() string {
	if p.parkKind == parkOn {
		if p.parkWhy != nil {
			return p.parkWhy.reason
		}
		return "blocked"
	}
	return formatWaitReason(p.parkKind, p.parkDur)
}

// Go spawns a process that starts at the current virtual time. The
// function fn runs on its own coroutine, only while the scheduler has
// resumed it; it advances time via p.Wait and friends.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	return e.spawn(e.now, name, fn)
}

// GoAt spawns a process that starts at absolute virtual time t.
func (e *Engine) GoAt(t float64, name string, fn func(p *Proc)) *Proc {
	return e.spawn(t, name, fn)
}

func (e *Engine) spawn(t float64, name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, fn: fn}
	if len(e.procs) == cap(e.procs) {
		e.compactProcs()
	}
	e.procs = append(e.procs, p)
	if e.ctr != nil {
		e.ctr.Spawns.Add(1)
	}
	e.scheduleProc(t, p)
	return p
}

// compactProcs drops finished processes from e.procs, keeping the
// rest in spawn order: Deadlock's "most recently spawned wins" rule and
// abortBlocked's unwinding order depend on it. It runs when the slice
// is full, and doubles the capacity when less than half of it was
// freed, so a spawn costs amortized O(1) and the slice stays within
// four times the peak number of live processes.
func (e *Engine) compactProcs() {
	live := e.procs[:0]
	for _, p := range e.procs {
		if !p.done {
			live = append(live, p)
		}
	}
	clear(e.procs[len(live):])
	e.procs = live
	if len(live) > cap(live)/2 {
		e.procs = slices.Grow(live, cap(live))
	}
}

// switchTo resumes p on its coroutine and returns the process to run
// next, or nil when the run is over. The process runs until it parks
// without being the next runnable process (it then yields that
// process) or its body returns (it then yields nil, and the exit is
// handled here: a panic ends the run, otherwise dispatch continues).
func (e *Engine) switchTo(p *Proc) *Proc {
	if p.co == nil {
		bindCoro(p)
	}
	c := p.co
	next, _ := c.next()
	if !p.done {
		return next
	}
	releaseCoro(c)
	if p.pv != nil {
		if e.failure == nil {
			e.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, p.pv)
		}
		return nil
	}
	return e.dispatch(nil)
}

// dispatch advances the event loop on behalf of self, the parking
// process (nil when called from Run). It pops events, runs scheduler
// callbacks inline, and returns the next process to resume: self
// means the caller just continues, anything else is a handoff. It
// returns nil when nothing remains runnable: queue empty or horizon
// reached.
func (e *Engine) dispatch(self *Proc) *Proc {
	for {
		if e.queue.len() == 0 {
			return nil
		}
		if e.until > 0 && e.queue.ev[0].t > e.until {
			e.now = e.until
			e.horizon = true
			return nil
		}
		ev := e.queue.pop()
		e.now = ev.t
		if e.ctr != nil {
			e.ctr.EventsPopped.Add(1)
		}
		if ev.p == nil {
			if e.ctr != nil {
				e.ctr.Callbacks.Add(1)
			}
			ev.fn() // scheduler-context callback
			continue
		}
		p := ev.p
		if p.done {
			continue
		}
		if p.chainLive && e.step(p) {
			if e.ctr != nil {
				e.ctr.FusedSteps.Add(1)
			}
			if e.failure != nil {
				return nil
			}
			continue // a sequence boundary or task event, handled inline
		}
		if p.blocked {
			p.blocked = false
			e.nblocked--
		}
		e.emitEvent(e.now, p.name, "resume")
		if e.ctr != nil {
			if p == self {
				e.ctr.SelfResumes.Add(1)
			} else {
				e.ctr.Handoffs.Add(1)
			}
		}
		return p
	}
}

// park suspends the process until its next resume; the caller must
// have already arranged for one. The reason (recorded without
// formatting for deadlock reports, and as a cached string for traces)
// is given by kind/why/dur; see parkOn and friends.
func (p *Proc) park(kind int, why *parkReason, dur float64) {
	if p.aborted {
		panic(abortError{})
	}
	e := p.eng
	p.blocked = true
	e.nblocked++
	p.parkKind, p.parkWhy, p.parkDur = kind, why, dur
	if e.observing() {
		if why == nil {
			why = e.waitReason(kind, dur)
		}
		e.emitEvent(e.now, p.name, why.action)
	}
	// When the next runnable process is this one, it just continues.
	if next := e.dispatch(p); next != p {
		p.yieldTo(next)
	}
}

// Wait advances the process's local view of time by dt seconds (dt < 0
// is treated as 0).
func (p *Proc) Wait(dt float64) {
	if dt < 0 {
		dt = 0
	}
	e := p.eng
	e.scheduleProc(e.now+dt, p)
	p.park(parkWait, nil, dt)
}

// WaitUntil advances to absolute virtual time t (no-op if t <= now).
func (p *Proc) WaitUntil(t float64) {
	e := p.eng
	e.scheduleProc(t, p)
	p.park(parkUntil, nil, t)
}

// Deadlock describes processes blocked forever at the end of a run.
type Deadlock struct {
	// Time is the virtual time the simulation stalled at.
	Time float64
	// Stuck maps process names to the reason each was blocked. When
	// several blocked processes share a name, the reason of the most
	// recently spawned one wins, deterministically (processes are
	// scanned in spawn order).
	Stuck map[string]string
}

// Error renders the report with process names in sorted order, so the
// message is stable across runs for tests and CI diffs.
func (d *Deadlock) Error() string {
	names := make([]string, 0, len(d.Stuck))
	for n := range d.Stuck {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("sim: deadlock at t=%.6g: %d process(es) blocked:", d.Time, len(names))
	for _, n := range names {
		s += fmt.Sprintf("\n  %s: %s", n, d.Stuck[n])
	}
	return s
}

// Run drives the simulation until the event queue is empty, a process
// panics, or (if until > 0) virtual time reaches until. It returns a
// *Deadlock error if processes remain blocked with no pending events,
// or the first process panic. Run aborts and unwinds any still-blocked
// processes before returning, so their coroutines do not leak.
func (e *Engine) Run(until float64) error {
	if e.running {
		return fmt.Errorf("sim: Run is not reentrant")
	}
	e.running = true
	defer func() { e.running = false }()

	e.until = until
	e.horizon = false
	for p := e.dispatch(nil); p != nil; {
		p = e.switchTo(p)
	}

	var err error
	if e.failure != nil {
		err = e.failure
	} else if !e.horizon && e.nblocked > 0 {
		d := &Deadlock{Time: e.now, Stuck: make(map[string]string, e.nblocked)}
		for _, p := range e.procs {
			if p.blocked {
				d.Stuck[p.name] = p.reason()
			}
		}
		err = d
	}
	e.abortBlocked()
	return err
}

// abortBlocked unwinds every live process — parked or never started —
// in spawn order, then recycles the event queue's scratch.
func (e *Engine) abortBlocked() {
	for _, p := range e.procs {
		if p.done {
			continue
		}
		p.blocked = false
		p.abort()
	}
	e.nblocked = 0
	// Drop events referencing finished procs and return the cleared
	// backing array to the pool for the next engine.
	e.queue.reset()
	if ev := e.queue.ev; ev != nil {
		e.queue.ev = nil
		queuePool.Put(ev)
		if e.ctr != nil {
			e.ctr.QueueRecycles.Add(1)
		}
	}
}
