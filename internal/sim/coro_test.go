package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// coroReference is a fixed program touching every primitive, with
// processes spawned both up front and from inside processes. Its
// recorded stream is what a fresh engine on recycled coroutines must
// reproduce after any kind of run ended before it.
func coroReference() []string {
	e := New()
	var ctr Counters
	e.SetCounters(&ctr)
	rec := &chainRecorder{}
	e.Observe(rec)
	cpu := NewResource(e, "cpu", 1)
	mb := NewMailbox(e, "mb")
	sig := NewSignal(e, "sig")
	bar := NewBarrier(e, "bar", 3)
	for i := 0; i < 3; i++ {
		e.Go(Name("w", i), func(p *Proc) {
			cpu.UseSeq(p, []Charge{{Cat: CatDMA, Bytes: 64, Dt: 0.5}, {Cat: CatCompute, Dt: float64(i + 1)}})
			mb.Put(i)
			e.Go(Name(p.Name(), 0), func(c *Proc) {
				c.WaitSeq(DeviceLink, "link", []Charge{{Cat: CatNetwork, Dt: 0.25}, {Cat: CatNetwork, Dt: 0.25}})
				sig.Wait(c)
			})
			bar.Arrive(p)
		})
	}
	e.Go("sink", func(p *Proc) {
		for i := 0; i < 3; i++ {
			mb.Get(p)
		}
		p.Wait(1)
		sig.Fire()
	})
	err := e.Run(0)
	return append(rec.lines, fmt.Sprintf("now=%v err=%v counters=%+v", e.Now(), err, ctr.Snapshot()))
}

// TestCoroutineLifecycle ends runs every way a process can stop — a
// panic, a deadlock, the horizon cutting off a process parked
// mid-chain, queued on a Resource or blocked on a Mailbox, Signal or
// Barrier, and processes that never started — and checks each report
// and that a fresh engine on the recycled coroutines then reproduces
// the reference run exactly.
func TestCoroutineLifecycle(t *testing.T) {
	want := coroReference()
	// unwound counts the deferred calls each case's processes run,
	// normally or while being unwound.
	cases := []struct {
		name    string
		until   float64
		build   func(e *Engine, unwound *int)
		err     string
		unwound int
	}{
		{"panic", 0, func(e *Engine, _ *int) {
			e.Go("calm", func(p *Proc) { p.Wait(5) })
			e.Go("boom", func(p *Proc) { p.Wait(1); panic("kaput") })
		}, `sim: process "boom" panicked: kaput`, 0},
		{"deadlock", 0, func(e *Engine, unwound *int) {
			mb := NewMailbox(e, "never")
			r := NewResource(e, "r", 1)
			e.Go("holder", func(p *Proc) {
				defer func() { *unwound++ }()
				r.Acquire(p)
				mb.Get(p)
			})
			e.Go("queued", func(p *Proc) {
				defer func() { *unwound++ }()
				p.Wait(0.5)
				r.Acquire(p)
			})
		}, "sim: deadlock at t=0.5: 2 process(es) blocked:\n  holder: recv never\n  queued: acquire r", 2},
		{"mid-chain", 2, func(e *Engine, unwound *int) {
			r := NewResource(e, "r", 1)
			for i := 0; i < 2; i++ {
				e.Go(Name("c", i), func(p *Proc) {
					defer func() { *unwound++ }()
					r.UseSeq(p, []Charge{{Cat: CatCompute, Dt: 1.5}, {Cat: CatCompute, Dt: 1.5}})
				})
			}
			e.Go("free", func(p *Proc) {
				defer func() { *unwound++ }()
				p.WaitSeq(DeviceCPU, "cpu", []Charge{{Cat: CatCompute, Dt: 1}, {Cat: CatCompute, Dt: 5}})
			})
		}, "<nil>", 3},
		{"primitives", 3, func(e *Engine, unwound *int) {
			mb := NewMailbox(e, "mb")
			sig := NewSignal(e, "sig")
			bar := NewBarrier(e, "bar", 3)
			r := NewResource(e, "r", 1)
			blockers := []func(p *Proc){
				func(p *Proc) { mb.Get(p) },
				func(p *Proc) { sig.Wait(p) },
				func(p *Proc) { bar.Arrive(p) },
				func(p *Proc) { r.Use(p, 10) },
				func(p *Proc) { r.Use(p, 10) },
			}
			for i, block := range blockers {
				e.Go(Name("b", i), func(p *Proc) {
					// A deferred park during the unwind must not re-enter
					// the scheduler.
					defer func() { *unwound++ }()
					defer p.Wait(1)
					block(p)
				})
			}
			e.At(4, func() { sig.Fire() })
		}, "<nil>", 5},
		{"never-started", 1, func(e *Engine, _ *int) {
			e.Go("short", func(p *Proc) { p.Wait(0.5) })
			for i := 0; i < 3; i++ {
				e.GoAt(float64(2+i), Name("late", i), func(p *Proc) { t.Error("late process ran") })
			}
		}, "<nil>", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < 3; round++ {
				e := New()
				unwound := 0
				tc.build(e, &unwound)
				if err := fmt.Sprint(e.Run(tc.until)); err != tc.err {
					t.Fatalf("round %d: err %q, want %q", round, err, tc.err)
				}
				for _, p := range e.procs {
					if !p.done || p.co != nil {
						t.Fatalf("round %d: process %s left live (done=%v)", round, p.name, p.done)
					}
				}
				if unwound != tc.unwound {
					t.Fatalf("round %d: %d deferred calls ran, want %d", round, unwound, tc.unwound)
				}
				if got := coroReference(); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: reference run diverged after %s", round, tc.name)
				}
			}
		})
	}
}

// TestCoroutinePoolBound runs 1,000 engines that leave processes
// parked, panic, deadlock or finish with more concurrent processes
// than the pool keeps, and checks that the goroutines left behind stay
// within the pool cap.
func TestCoroutinePoolBound(t *testing.T) {
	// The baseline excludes coroutines earlier tests left idle in the
	// pool: the bound is on the pool, not on top of it.
	coroPool.Lock()
	base := runtime.NumGoroutine() - len(coroPool.idle)
	coroPool.Unlock()
	for i := 0; i < 1000; i++ {
		e := New()
		mb := NewMailbox(e, "mb")
		n := 4
		if i%100 == 99 {
			// More live at once than the pool holds; the last engine is
			// one of these, so it leaves the pool full.
			n = 2 * coroPoolCap
		}
		for j := 0; j < n; j++ {
			e.Go("p", func(p *Proc) {
				p.Wait(float64(j % 3))
				switch {
				case i%4 == 1 && j == 0:
					mb.Get(p) // deadlock
				case i%4 == 2 && j == 1:
					panic("boom")
				}
			})
		}
		until := 0.0
		if i%4 == 3 {
			until = 1 // cut off the j%3 == 2 processes
		}
		e.Run(until)
	}
	if got, limit := runtime.NumGoroutine(), base+coroPoolCap; got > limit {
		t.Fatalf("%d goroutines after 1000 engines, want at most %d (baseline %d + pool cap %d)",
			got, limit, base, coroPoolCap)
	}
	coroPool.Lock()
	idle := len(coroPool.idle)
	coroPool.Unlock()
	if idle != coroPoolCap {
		t.Fatalf("%d idle coroutines pooled, want the cap %d after runs wider than it", idle, coroPoolCap)
	}
}

// TestConcurrentEnginesOnSharedPool runs engines on several goroutines
// at once, all drawing coroutines from the one shared pool; every run
// must match the serial reference (and -race must stay quiet).
func TestConcurrentEnginesOnSharedPool(t *testing.T) {
	want := coroReference()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if got := coroReference(); !reflect.DeepEqual(got, want) {
					t.Error("concurrent run diverged from the serial reference")
					return
				}
			}
		}()
	}
	wg.Wait()
}
