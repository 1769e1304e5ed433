//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// coro is a runtime coroutine that runs process bodies. Engine.Run
// resumes it with next; the process hands control back by yielding the
// process to run after it (nil when the run is over). A coroutine
// whose body returns yields once more and then waits for its next
// process, so one coroutine serves many short-lived processes.
type coro struct {
	next  func() (*Proc, bool)
	stop  func()
	yield func(*Proc) bool
	p     *Proc // the process this coroutine runs; nil while idle
}

// coroPoolCap bounds the idle coroutines kept for reuse. Each idle
// coroutine is a parked goroutine with its stack; past the cap a
// released coroutine is stopped instead, so a burst of concurrent
// engines cannot leave more than this many behind.
const coroPoolCap = 256

// coroPool is the idle stack shared by every engine: a coroutine
// freed by one run (or one exited process) serves the next spawn of
// any engine on any goroutine.
var coroPool struct {
	sync.Mutex
	idle []*coro
}

// bindCoro gives p a coroutine, reusing an idle one when it can.
func bindCoro(p *Proc) {
	coroPool.Lock()
	var c *coro
	if n := len(coroPool.idle); n > 0 {
		c = coroPool.idle[n-1]
		coroPool.idle[n-1] = nil
		coroPool.idle = coroPool.idle[:n-1]
	}
	coroPool.Unlock()
	if c == nil {
		c = new(coro)
		c.next, c.stop = iter.Pull(c.loop)
	}
	c.p = p
	p.co = c
}

// releaseCoro returns the coroutine of a finished process to the pool,
// or stops it when the pool is full. The coroutine is suspended in its
// loop's yield, so either is safe.
func releaseCoro(c *coro) {
	c.p.co = nil
	c.p = nil
	coroPool.Lock()
	if len(coroPool.idle) < coroPoolCap {
		coroPool.idle = append(coroPool.idle, c)
		c = nil
	}
	coroPool.Unlock()
	if c != nil {
		c.stop()
	}
}

// loop is the coroutine body: run the bound process, report its exit
// by yielding nil, and wait to be rebound. Once the coroutine is
// stopped (an abort, or a release past the pool cap) yield returns
// false and the loop returns.
func (c *coro) loop(yield func(*Proc) bool) {
	c.yield = yield
	for {
		c.p.runBody()
		if !yield(nil) {
			return
		}
	}
}

// runBody runs the process function, recording a panic and marking
// the process done however it ends. An abortError is the engine
// unwinding a parked process at teardown, not a failure.
func (p *Proc) runBody() {
	defer func() {
		r := recover()
		if _, ok := r.(abortError); ok {
			r = nil
		}
		p.pv = r
		p.done = true
		p.fn = nil
	}()
	p.fn(p)
}

// yieldTo suspends the running process p and asks Run to resume next
// (nil: the run is over). It returns when p is resumed; if the engine
// stops p's coroutine instead, p unwinds with an abortError.
func (p *Proc) yieldTo(next *Proc) {
	if !p.co.yield(next) {
		p.aborted = true
		panic(abortError{})
	}
}

// abort unwinds a started, parked process: stopping its coroutine
// makes the pending yield return false, and the abortError it raises
// runs the body's deferred calls before the coroutine exits.
func (p *Proc) abort() {
	if c := p.co; c != nil {
		c.stop()
		p.co = nil
	}
	p.done = true
	p.fn = nil
}
