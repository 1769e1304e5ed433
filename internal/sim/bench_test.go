package sim_test

import (
	"testing"

	"codesign/internal/sim"
)

// Engine micro-benchmarks, run with -benchmem. These isolate the
// scheduler hot paths that the application-level benchmarks in the
// repository root (BenchmarkSimEngine, BenchmarkDesignSpaceSweep)
// exercise in aggregate: the event loop's timed-wait turnaround, the
// proc-to-proc coroutine handoff, resource contention queues, mailbox
// traffic, and the cost of an attached observer. CI compares their
// ns/op and allocs/op against BENCH_speed.json via cmd/perfcheck.

// BenchmarkEventLoopSelf measures the self-resume fast path: a single
// process doing timed waits is always the next runnable process, so it
// never switches coroutines and this is the floor of the event loop
// (pop + clock advance): ~40 ns/event on a 2-vCPU x86-64 host.
func BenchmarkEventLoopSelf(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.New()
		e.Go("p", func(p *sim.Proc) {
			for k := 0; k < 1000; k++ {
				p.Wait(1)
			}
		})
		if err := e.Run(0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1000*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEventLoopHandoff measures the process handoff under the two
// charging styles. "raw" issues 1000 independent timed waits per
// process across eight interleaved processes, forcing a handoff (two
// coroutine switches through Engine.Run) on almost every event:
// ~320 ns/event on a 2-vCPU x86-64 host. "fused" issues the same 1000
// charges per process as 250 four-charge WaitSeq sequences:
// intermediate boundaries advance in scheduler context without
// resuming the process, so only every fourth event pays a handoff
// (~140 ns/event). Identical event count, identical simulated time;
// the gap between the two variants is the engine's handoff-batching
// win, gated in BENCH_speed.json.
func BenchmarkEventLoopHandoff(b *testing.B) {
	loop := func(b *testing.B, body func(p *sim.Proc)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := sim.New()
			for j := 0; j < 8; j++ {
				e.Go("p", body)
			}
			if err := e.Run(0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(8000*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	}
	b.Run("raw", func(b *testing.B) {
		loop(b, func(p *sim.Proc) {
			for k := 0; k < 1000; k++ {
				p.Wait(1)
			}
		})
	})
	b.Run("fused", func(b *testing.B) {
		charges := []sim.Charge{
			{Cat: sim.CatCompute, Dt: 1}, {Cat: sim.CatCompute, Dt: 1},
			{Cat: sim.CatCompute, Dt: 1}, {Cat: sim.CatCompute, Dt: 1},
		}
		loop(b, func(p *sim.Proc) {
			for k := 0; k < 250; k++ {
				p.WaitSeq(sim.DeviceCPU, "cpu", charges)
			}
		})
	})
}

// BenchmarkResourceContention queues eight processes on a capacity-1
// resource, exercising the waiter FIFO and direct handoff on Release.
func BenchmarkResourceContention(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.New()
		r := sim.NewResource(e, "r", 1)
		for j := 0; j < 8; j++ {
			e.Go("p", func(p *sim.Proc) {
				for k := 0; k < 250; k++ {
					r.Use(p, 1)
				}
			})
		}
		if err := e.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMailboxPingPong bounces a message between two processes,
// exercising the message ring and park/wake on an empty mailbox.
func BenchmarkMailboxPingPong(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.New()
		ping := sim.NewMailbox(e, "ping")
		pong := sim.NewMailbox(e, "pong")
		e.Go("a", func(p *sim.Proc) {
			for k := 0; k < 500; k++ {
				ping.Put(k)
				pong.Get(p)
			}
		})
		e.Go("b", func(p *sim.Proc) {
			for k := 0; k < 500; k++ {
				ping.Get(p)
				pong.Put(k)
			}
		})
		if err := e.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

// countObserver counts events and spans without retaining them — the
// recorder's cheap configuration, isolating delivery overhead.
type countObserver struct {
	events, spans int
}

func (c *countObserver) Event(t float64, proc, action string) { c.events++ }
func (c *countObserver) Span(s sim.SpanEvent)                 { c.spans++ }

// BenchmarkObservedWaits is BenchmarkEventLoopSelf with an observer
// registered: the marginal cost of telemetry on the hot path (park
// reason interning plus Event/Span delivery).
func BenchmarkObservedWaits(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.New()
		var obs countObserver
		e.Observe(&obs)
		e.Go("p", func(p *sim.Proc) {
			for k := 0; k < 1000; k++ {
				p.WaitSpan(sim.CatCompute, "r", 0, 1)
			}
		})
		if err := e.Run(0); err != nil {
			b.Fatal(err)
		}
		if obs.spans != 1000 {
			b.Fatalf("observer saw %d spans, want 1000", obs.spans)
		}
	}
}

// BenchmarkEngineCounters prices the engine-counter sink on the
// handoff-heavy loop of BenchmarkEventLoopHandoff: "off" is the
// default nil sink (the counting sites must cost only a nil check, so
// its numbers track BenchmarkEventLoopHandoff), "on" pays one atomic
// add per counted action. cmd/perfcheck gates both against
// BENCH_speed.json — in particular allocs/op, which must not move at
// all when counting is enabled.
func BenchmarkEngineCounters(b *testing.B) {
	loop := func(b *testing.B, ctr *sim.Counters) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := sim.New()
			e.SetCounters(ctr)
			for j := 0; j < 8; j++ {
				e.Go("p", func(p *sim.Proc) {
					for k := 0; k < 1000; k++ {
						p.Wait(1)
					}
				})
			}
			if err := e.Run(0); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { loop(b, nil) })
	b.Run("on", func(b *testing.B) {
		var ctr sim.Counters
		loop(b, &ctr)
		if ctr.EventsPopped.Load() == 0 {
			b.Fatal("counters recorded nothing")
		}
	})
}
