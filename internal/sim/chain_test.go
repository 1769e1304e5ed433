package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// chainRecorder captures the full interleaved event+span stream so
// fused and unfused runs can be compared for byte-level equivalence.
type chainRecorder struct {
	lines []string
}

func (r *chainRecorder) Event(t float64, proc, action string) {
	r.lines = append(r.lines, fmt.Sprintf("event t=%.9g proc=%s action=%s", t, proc, action))
}

func (r *chainRecorder) Span(s SpanEvent) {
	r.lines = append(r.lines, fmt.Sprintf("span cat=%s dev=%s proc=%s res=%s phase=%s bytes=%d start=%.9g end=%.9g",
		s.Category, s.Device, s.Proc, s.Resource, s.Phase, s.Bytes, s.Start, s.End))
}

// runChainScenario runs body twice — once charging sequences with the
// unfused per-charge loop, once with the fused path — and asserts the
// event/span streams, final times, and reported errors are identical.
// body receives a "use" function that charges a sequence on a resource
// one way or the other.
func runChainScenario(t *testing.T, build func(e *Engine, use func(p *Proc, r *Resource, cs []Charge))) {
	t.Helper()
	run := func(fused bool) ([]string, float64, error) {
		e := New()
		rec := &chainRecorder{}
		e.Observe(rec)
		use := func(p *Proc, r *Resource, cs []Charge) {
			if fused {
				r.UseSeq(p, cs)
				return
			}
			for _, c := range cs {
				r.UseCat(p, c.Cat, c.Bytes, c.Dt)
			}
		}
		build(e, use)
		err := e.Run(0)
		return rec.lines, e.Now(), err
	}
	plain, tPlain, errPlain := run(false)
	fused, tFused, errFused := run(true)
	if tPlain != tFused {
		t.Fatalf("final time: unfused %.9g, fused %.9g", tPlain, tFused)
	}
	if (errPlain == nil) != (errFused == nil) {
		t.Fatalf("errors differ: unfused %v, fused %v", errPlain, errFused)
	}
	if !reflect.DeepEqual(plain, fused) {
		max := len(plain)
		if len(fused) > max {
			max = len(fused)
		}
		for i := 0; i < max; i++ {
			a, b := "<missing>", "<missing>"
			if i < len(plain) {
				a = plain[i]
			}
			if i < len(fused) {
				b = fused[i]
			}
			if a != b {
				t.Errorf("line %d:\n  unfused: %s\n  fused:   %s", i, a, b)
			}
		}
		t.Fatalf("streams diverge: %d unfused vs %d fused lines", len(plain), len(fused))
	}
}

func TestUseSeqUncontendedMatchesLoop(t *testing.T) {
	runChainScenario(t, func(e *Engine, use func(*Proc, *Resource, []Charge)) {
		r := NewResource(e, "cpu0", 1)
		r.SetDevice(DeviceCPU)
		e.Go("worker", func(p *Proc) {
			p.SetPhase("update")
			use(p, r, []Charge{
				{Cat: CatNetwork, Dt: 0.25},
				{Cat: CatDMA, Bytes: 4096, Dt: 0.5},
				{Cat: CatCompute, Dt: 1.5},
			})
		})
	})
}

func TestUseSeqContendedMatchesLoop(t *testing.T) {
	runChainScenario(t, func(e *Engine, use func(*Proc, *Resource, []Charge)) {
		r := NewResource(e, "cpu0", 1)
		r.SetDevice(DeviceCPU)
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("worker%d", i)
			e.Go(name, func(p *Proc) {
				for round := 0; round < 2; round++ {
					use(p, r, []Charge{
						{Cat: CatNetwork, Dt: 0.1},
						{Cat: CatDMA, Bytes: 1 << 10, Dt: 0.2},
						{Cat: CatCompute, Dt: 0.3},
					})
				}
			})
		}
	})
}

// A capacity-2 resource exercises the partial-contention regime where
// some intermediate re-acquires succeed and others queue.
func TestUseSeqCapacityTwoMatchesLoop(t *testing.T) {
	runChainScenario(t, func(e *Engine, use func(*Proc, *Resource, []Charge)) {
		r := NewResource(e, "pool", 2)
		for i := 0; i < 4; i++ {
			dt := 0.1 * float64(i+1)
			e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
				use(p, r, []Charge{
					{Cat: CatCompute, Dt: dt},
					{Cat: CatCompute, Dt: 0.15},
				})
			})
		}
	})
}

func TestUseSeqZeroAndNegativeDurations(t *testing.T) {
	runChainScenario(t, func(e *Engine, use func(*Proc, *Resource, []Charge)) {
		r := NewResource(e, "cpu0", 1)
		e.Go("worker", func(p *Proc) {
			use(p, r, []Charge{
				{Cat: CatNetwork, Dt: 0},
				{Cat: CatDMA, Dt: -1},
				{Cat: CatCompute, Dt: 0.5},
			})
		})
	})
}

// Sequences longer than the inline buffer fall back to the unfused
// loop; behavior must stay identical there too.
func TestUseSeqOverflowFallback(t *testing.T) {
	runChainScenario(t, func(e *Engine, use func(*Proc, *Resource, []Charge)) {
		r := NewResource(e, "cpu0", 1)
		cs := make([]Charge, chainCap+3)
		for i := range cs {
			cs[i] = Charge{Cat: CatCompute, Dt: 0.1 * float64(i+1)}
		}
		e.Go("worker", func(p *Proc) { use(p, r, cs) })
	})
}

func TestUseSeqEmptyAndSingle(t *testing.T) {
	e := New()
	r := NewResource(e, "cpu0", 1)
	e.Go("worker", func(p *Proc) {
		r.UseSeq(p, nil)
		r.UseSeq(p, []Charge{{Cat: CatCompute, Dt: 2}})
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 2 {
		t.Fatalf("final time %g, want 2", e.Now())
	}
	if r.Acquires() != 1 {
		t.Fatalf("acquires %d, want 1", r.Acquires())
	}
}

func TestWaitSeqMatchesLoop(t *testing.T) {
	run := func(fused bool) ([]string, float64) {
		e := New()
		rec := &chainRecorder{}
		e.Observe(rec)
		cs := []Charge{
			{Cat: CatNetwork, Dt: 0.25},
			{Cat: CatCompute, Dt: 0.75},
		}
		for i := 0; i < 2; i++ {
			e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
				if fused {
					p.WaitSeq(DeviceCPU, "cpu", cs)
					return
				}
				for _, c := range cs {
					p.WaitSpanOn(c.Cat, DeviceCPU, "cpu", c.Bytes, c.Dt)
				}
			})
		}
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return rec.lines, e.Now()
	}
	plain, tPlain := run(false)
	fused, tFused := run(true)
	if tPlain != tFused || !reflect.DeepEqual(plain, fused) {
		t.Fatalf("WaitSeq diverges from WaitSpanOn loop:\nunfused: %v\nfused: %v", plain, fused)
	}
}

// Resource accounting (utilization integral, acquire/wait counts) must
// be identical whichever path charged the sequence.
func TestUseSeqResourceAccounting(t *testing.T) {
	measure := func(fused bool) (busy, waitInt float64, acquires, waits int64) {
		e := New()
		r := NewResource(e, "cpu0", 1)
		cs := []Charge{
			{Cat: CatNetwork, Dt: 0.2},
			{Cat: CatCompute, Dt: 0.4},
		}
		for i := 0; i < 3; i++ {
			e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
				if fused {
					r.UseSeq(p, cs)
					return
				}
				for _, c := range cs {
					r.UseCat(p, c.Cat, c.Bytes, c.Dt)
				}
			})
		}
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return r.BusySeconds(), r.ContentionSeconds(), r.Acquires(), r.Waits()
	}
	b1, w1, a1, q1 := measure(false)
	b2, w2, a2, q2 := measure(true)
	if b1 != b2 || w1 != w2 || a1 != a2 || q1 != q2 {
		t.Fatalf("accounting diverges: unfused busy=%g wait=%g acq=%d waits=%d, fused busy=%g wait=%g acq=%d waits=%d",
			b1, w1, a1, q1, b2, w2, a2, q2)
	}
}

// A process parked mid-chain must appear in deadlock reports with the
// same reason the unfused path would record.
func TestChainDeadlockReason(t *testing.T) {
	e := New()
	r := NewResource(e, "cpu0", 1)
	gate := NewSignal(e, "gate")
	e.Go("holder", func(p *Proc) {
		r.Acquire(p)
		gate.Wait(p) // holds the unit forever
	})
	e.Go("chained", func(p *Proc) {
		p.Wait(0.1) // let holder win the unit
		r.UseSeq(p, []Charge{
			{Cat: CatNetwork, Dt: 0.1},
			{Cat: CatCompute, Dt: 0.2},
		})
	})
	err := e.Run(0)
	d, ok := err.(*Deadlock)
	if !ok {
		t.Fatalf("want deadlock, got %v", err)
	}
	if got := d.Stuck["chained"]; got != "acquire cpu0" {
		t.Fatalf("chained proc reason %q, want %q", got, "acquire cpu0")
	}
}

// The horizon abort path must unwind a process parked mid-chain
// without leaking its coroutine or panicking.
func TestChainHorizonAbort(t *testing.T) {
	e := New()
	r := NewResource(e, "cpu0", 1)
	done := false
	e.Go("worker", func(p *Proc) {
		r.UseSeq(p, []Charge{
			{Cat: CatNetwork, Dt: 10},
			{Cat: CatCompute, Dt: 10},
		})
		done = true
	})
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("worker should have been cut off at the horizon")
	}
	if e.Now() != 5 {
		t.Fatalf("final time %g, want horizon 5", e.Now())
	}
}

// FusedSteps counts exactly the intermediate boundaries that skipped a
// park; handoff and self-resume counts drop accordingly.
func TestChainFusedStepsCounter(t *testing.T) {
	e := New()
	var c Counters
	e.SetCounters(&c)
	r := NewResource(e, "cpu0", 1)
	e.Go("worker", func(p *Proc) {
		r.UseSeq(p, []Charge{
			{Cat: CatNetwork, Dt: 0.1},
			{Cat: CatDMA, Dt: 0.2},
			{Cat: CatCompute, Dt: 0.3},
		})
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := c.FusedSteps.Load(); got != 2 {
		t.Fatalf("FusedSteps = %d, want 2 (three charges, one park)", got)
	}
	s := c.Snapshot()
	if s.FusedSteps != 2 {
		t.Fatalf("snapshot FusedSteps = %d, want 2", s.FusedSteps)
	}
}
