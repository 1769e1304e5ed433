package sim

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestWaitAdvancesClock(t *testing.T) {
	e := New()
	var at float64
	e.Go("p", func(p *Proc) {
		p.Wait(2.5)
		at = p.Now()
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if at != 2.5 {
		t.Fatalf("proc observed t=%v, want 2.5", at)
	}
	if e.Now() != 2.5 {
		t.Fatalf("engine t=%v, want 2.5", e.Now())
	}
}

func TestNegativeWaitIsZero(t *testing.T) {
	e := New()
	e.Go("p", func(p *Proc) {
		p.Wait(-5)
		if p.Now() != 0 {
			t.Errorf("negative wait advanced clock to %v", p.Now())
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavingDeterministic(t *testing.T) {
	run := func() string {
		e := New()
		var log []string
		for i := 0; i < 3; i++ {
			i := i
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Wait(float64(i+1) * 0.5)
					log = append(log, fmt.Sprintf("%s@%.1f", p.Name(), p.Now()))
				}
			})
		}
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return strings.Join(log, " ")
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic schedule:\n%s\nvs\n%s", first, got)
		}
	}
}

func TestTieBreakBySpawnOrder(t *testing.T) {
	e := New()
	var order []string
	e.Go("a", func(p *Proc) { p.Wait(1); order = append(order, "a") })
	e.Go("b", func(p *Proc) { p.Wait(1); order = append(order, "b") })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, "") != "ab" {
		t.Fatalf("tie broke as %v, want [a b]", order)
	}
}

func TestGoAt(t *testing.T) {
	e := New()
	var start float64 = -1
	e.GoAt(3, "late", func(p *Proc) { start = p.Now() })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if start != 3 {
		t.Fatalf("late proc started at %v, want 3", start)
	}
}

func TestAtCallback(t *testing.T) {
	e := New()
	fired := 0.0
	e.At(7, func() { fired = e.Now() })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 7 {
		t.Fatalf("At fired at %v", fired)
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := New()
	reached := false
	e.Go("p", func(p *Proc) {
		p.Wait(100)
		reached = true
	})
	err := e.Run(10)
	if err != nil {
		t.Fatalf("Run(until) returned %v", err)
	}
	if reached {
		t.Fatal("process ran past the until horizon")
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v, want 10", e.Now())
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := New()
	mb := NewMailbox(e, "never")
	e.Go("stuck", func(p *Proc) { mb.Get(p) })
	err := e.Run(0)
	var d *Deadlock
	if !errors.As(err, &d) {
		t.Fatalf("err = %v, want Deadlock", err)
	}
	if _, ok := d.Stuck["stuck"]; !ok {
		t.Fatalf("deadlock report %v missing process", d.Stuck)
	}
	if !strings.Contains(d.Error(), "stuck") {
		t.Fatalf("error text %q", d.Error())
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := New()
	e.Go("boom", func(p *Proc) { panic("kaput") })
	err := e.Run(0)
	if err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("err = %v, want panic propagation", err)
	}
}

func TestWaitUntil(t *testing.T) {
	e := New()
	e.Go("p", func(p *Proc) {
		p.WaitUntil(4)
		if p.Now() != 4 {
			t.Errorf("WaitUntil: now=%v", p.Now())
		}
		p.WaitUntil(2) // in the past: no-op
		if p.Now() != 4 {
			t.Errorf("WaitUntil past moved clock: now=%v", p.Now())
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestResourceSerializes(t *testing.T) {
	e := New()
	r := NewResource(e, "cpu", 1)
	var finishes []float64
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("job%d", i), func(p *Proc) {
			r.Use(p, 2)
			finishes = append(finishes, p.Now())
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 4, 6}
	for i, w := range want {
		if finishes[i] != w {
			t.Fatalf("finishes = %v, want %v", finishes, want)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := New()
	r := NewResource(e, "duo", 2)
	var finishes []float64
	for i := 0; i < 4; i++ {
		e.Go(fmt.Sprintf("job%d", i), func(p *Proc) {
			r.Use(p, 3)
			finishes = append(finishes, p.Now())
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 3, 6, 6}
	for i, w := range want {
		if finishes[i] != w {
			t.Fatalf("finishes = %v, want %v", finishes, want)
		}
	}
}

func TestResourceFIFO(t *testing.T) {
	e := New()
	r := NewResource(e, "lock", 1)
	var order []string
	// p0 grabs at t=0; p1 and p2 queue in spawn order.
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("p%d", i)
		e.Go(name, func(p *Proc) {
			r.Acquire(p)
			order = append(order, p.Name())
			p.Wait(1)
			r.Release()
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "p0,p1,p2" {
		t.Fatalf("service order %v", order)
	}
}

func TestResourceUtilization(t *testing.T) {
	e := New()
	r := NewResource(e, "dev", 1)
	e.Go("a", func(p *Proc) {
		r.Use(p, 3)
		p.Wait(1) // idle tail
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := r.BusySeconds(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("busy = %v, want 3", got)
	}
	if got := r.Utilization(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("utilization = %v, want 0.75", got)
	}
}

func TestTryAcquire(t *testing.T) {
	e := New()
	r := NewResource(e, "dev", 1)
	e.Go("a", func(p *Proc) {
		if !r.TryAcquire() {
			t.Error("first TryAcquire failed")
		}
		if r.TryAcquire() {
			t.Error("second TryAcquire succeeded on saturated resource")
		}
		r.Release()
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	e := New()
	r := NewResource(e, "dev", 1)
	e.Go("a", func(p *Proc) { r.Release() })
	if err := e.Run(0); err == nil {
		t.Fatal("expected panic propagation for idle release")
	}
}

func TestMailboxDelivers(t *testing.T) {
	e := New()
	mb := NewMailbox(e, "mb")
	var got []any
	e.Go("rx", func(p *Proc) {
		got = append(got, mb.Get(p), mb.Get(p))
	})
	e.Go("tx", func(p *Proc) {
		p.Wait(1)
		mb.Put("x")
		p.Wait(1)
		mb.Put("y")
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("got %v", got)
	}
	if e.Now() != 2 {
		t.Fatalf("clock %v, want 2", e.Now())
	}
}

func TestMailboxBuffersAheadOfReceiver(t *testing.T) {
	e := New()
	mb := NewMailbox(e, "mb")
	e.Go("tx", func(p *Proc) { mb.Put(1); mb.Put(2) })
	var got []any
	e.GoAt(5, "rx", func(p *Proc) { got = append(got, mb.Get(p), mb.Get(p)) })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestMailboxTryGet(t *testing.T) {
	e := New()
	mb := NewMailbox(e, "mb")
	if _, ok := mb.TryGet(); ok {
		t.Fatal("TryGet on empty mailbox succeeded")
	}
	mb.Put(42)
	if v, ok := mb.TryGet(); !ok || v != 42 {
		t.Fatalf("TryGet = %v,%v", v, ok)
	}
	if mb.Len() != 0 {
		t.Fatal("mailbox not drained")
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := New()
	s := NewSignal(e, "done")
	var woke []float64
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			s.Wait(p)
			woke = append(woke, p.Now())
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Wait(2)
		s.Fire()
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke %d of 3", len(woke))
	}
	for _, w := range woke {
		if w != 2 {
			t.Fatalf("waiter woke at %v, want 2", w)
		}
	}
	// Already-fired signal: Wait returns immediately.
	e2 := New()
	s2 := NewSignal(e2, "pre")
	s2.Fire()
	e2.Go("late", func(p *Proc) {
		s2.Wait(p)
		if p.Now() != 0 {
			t.Errorf("pre-fired signal blocked")
		}
	})
	if err := e2.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestSignalReset(t *testing.T) {
	e := New()
	s := NewSignal(e, "s")
	s.Fire()
	s.Reset()
	if s.Fired() {
		t.Fatal("Reset did not clear Fired")
	}
}

func TestBarrier(t *testing.T) {
	e := New()
	b := NewBarrier(e, "b", 3)
	var times []float64
	for i := 0; i < 3; i++ {
		i := i
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Wait(float64(i)) // arrive at t=0,1,2
			b.Arrive(p)
			times = append(times, p.Now())
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for _, tt := range times {
		if tt != 2 {
			t.Fatalf("barrier released at %v, want 2 (times %v)", tt, times)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	e := New()
	b := NewBarrier(e, "b", 2)
	rounds := 0
	for i := 0; i < 2; i++ {
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for k := 0; k < 3; k++ {
				p.Wait(1)
				b.Arrive(p)
			}
			rounds++
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if rounds != 2 || e.Now() != 3 {
		t.Fatalf("rounds=%d now=%v", rounds, e.Now())
	}
}

// eventLog is an Observer that keeps only the raw events.
type eventLog []string

func (l *eventLog) Event(tm float64, proc, action string) {
	*l = append(*l, fmt.Sprintf("%.0f/%s/%s", tm, proc, action))
}
func (l *eventLog) Span(SpanEvent) {}

func TestTraceHook(t *testing.T) {
	e := New()
	var events eventLog
	e.Observe(&events)
	e.Go("p", func(p *Proc) { p.Wait(1) })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("observer never saw an event")
	}
}

func TestNoGoroutineLeakAfterDeadlock(t *testing.T) {
	// A deadlocked run must still unwind all process coroutines; the
	// abort path is exercised by running many deadlocked engines.
	for i := 0; i < 50; i++ {
		e := New()
		mb := NewMailbox(e, "never")
		for j := 0; j < 4; j++ {
			e.Go(fmt.Sprintf("p%d", j), func(p *Proc) { mb.Get(p) })
		}
		if err := e.Run(0); err == nil {
			t.Fatal("expected deadlock")
		}
	}
}

func TestRunNotReentrant(t *testing.T) {
	e := New()
	e.Go("p", func(p *Proc) {
		if err := e.Run(0); err == nil {
			t.Error("nested Run must fail")
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}
