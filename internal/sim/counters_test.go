package sim

import "testing"

func TestCountersSelfResumeVsHandoff(t *testing.T) {
	// One lone process always resumes itself; eight interleaved
	// processes hand off to each other on almost every event.
	var solo Counters
	e := New()
	e.SetCounters(&solo)
	e.Go("p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Wait(1)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	s := solo.Snapshot()
	if s.EventsPopped == 0 || s.Spawns != 1 {
		t.Errorf("solo: popped=%d spawns=%d", s.EventsPopped, s.Spawns)
	}
	if s.SelfResumes < 99 {
		t.Errorf("solo run self-resumed %d times, want >= 99", s.SelfResumes)
	}
	if s.Handoffs > 1 {
		t.Errorf("solo run hand off %d times, want <= 1 (the initial resume)", s.Handoffs)
	}

	var many Counters
	e = New()
	e.SetCounters(&many)
	for j := 0; j < 8; j++ {
		e.Go("p", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Wait(1)
			}
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	m := many.Snapshot()
	if m.Spawns != 8 {
		t.Errorf("spawns = %d, want 8", m.Spawns)
	}
	if m.Handoffs < 700 {
		t.Errorf("interleaved run hand off %d times, want ~800", m.Handoffs)
	}
}

func TestCountersCompactionAndRecycle(t *testing.T) {
	var c Counters
	e := New()
	e.SetCounters(&c)
	box := NewMailbox(e, "box")
	// Partial-drain-then-backlog: the consumer pops one message (ring
	// head advances without rewinding), then the producer backlogs the
	// mailbox past capacity, forcing the in-place compaction path.
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			box.Put(i)
		}
		p.Wait(1)
		for i := 0; i < 10_000; i++ {
			box.Put(i)
		}
	})
	e.Go("consumer", func(p *Proc) {
		box.Get(p)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if s.Compactions == 0 {
		t.Error("persistent mailbox backlog triggered no compaction")
	}
	if s.QueueRecycles != 1 {
		t.Errorf("queue recycles = %d, want 1", s.QueueRecycles)
	}
}

func TestCountersSpans(t *testing.T) {
	var c Counters
	e := New()
	e.SetCounters(&c)
	e.Observe(recorderStub{})
	e.Go("p", func(p *Proc) {
		p.WaitSpan(CatCompute, "cpu", 0, 1)
		p.WaitSpan(CatDMA, "dram", 64, 1)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := c.SpansEmitted.Load(); got != 2 {
		t.Errorf("spans emitted = %d, want 2", got)
	}
}

// recorderStub is a no-op observer so the engine's observing() gate is
// open during counter tests.
type recorderStub struct{}

func (recorderStub) Event(float64, string, string) {}
func (recorderStub) Span(SpanEvent)                {}

func TestInstallCountersInheritedByNewEngines(t *testing.T) {
	var c Counters
	InstallCounters(&c)
	defer InstallCounters(nil)
	e := New()
	e.Go("p", func(p *Proc) { p.Wait(1) })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if c.EventsPopped.Load() == 0 {
		t.Error("engine did not inherit the installed process-wide counters")
	}

	InstallCounters(nil)
	var after Counters
	e2 := New()
	e2.SetCounters(&after)
	e2.SetCounters(nil) // explicit removal wins
	e2.Go("p", func(p *Proc) { p.Wait(1) })
	if err := e2.Run(0); err != nil {
		t.Fatal(err)
	}
	if after.EventsPopped.Load() != 0 {
		t.Error("counters incremented after SetCounters(nil)")
	}
}

func TestCountersDoNotPerturbVirtualTime(t *testing.T) {
	run := func(ctr *Counters) float64 {
		e := New()
		e.SetCounters(ctr)
		r := NewResource(e, "r", 1)
		for j := 0; j < 4; j++ {
			e.Go("p", func(p *Proc) {
				for i := 0; i < 50; i++ {
					r.Use(p, 0.5)
				}
			})
		}
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	var c Counters
	if plain, counted := run(nil), run(&c); plain != counted {
		t.Errorf("counters changed the simulation: %g vs %g", plain, counted)
	}
	if c.EventsPopped.Load() == 0 {
		t.Error("counted run recorded nothing")
	}
}
