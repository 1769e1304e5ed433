package trace

import (
	"strings"
	"testing"

	"codesign/internal/sim"
)

func runTraced(t *testing.T, c *Collector) {
	t.Helper()
	e := sim.New()
	e.Observe(c)
	r := sim.NewResource(e, "dev", 1)
	e.Go("worker-a", func(p *sim.Proc) {
		r.Use(p, 2)
		p.Wait(1)
	})
	e.Go("worker-b", func(p *sim.Proc) {
		r.Use(p, 2)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorRecords(t *testing.T) {
	var c Collector
	runTraced(t, &c)
	if c.Len() == 0 {
		t.Fatal("no events recorded")
	}
	evs := c.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			t.Fatal("events out of order")
		}
	}
}

func TestCollectorFilter(t *testing.T) {
	c := Collector{Filter: func(e Event) bool { return e.Proc == "worker-a" }}
	runTraced(t, &c)
	for _, e := range c.Events() {
		if e.Proc != "worker-a" {
			t.Fatalf("filter leaked %+v", e)
		}
	}
}

func TestCollectorLimit(t *testing.T) {
	c := Collector{Limit: 2}
	runTraced(t, &c)
	if c.Len() != 2 {
		t.Fatalf("stored %d events, want 2", c.Len())
	}
	if c.Dropped() == 0 {
		t.Fatal("expected dropped events")
	}
}

func TestWriteCSV(t *testing.T) {
	var c Collector
	runTraced(t, &c)
	var b strings.Builder
	if err := c.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "time_s,process,action\n") {
		t.Fatalf("missing header: %q", out[:30])
	}
	if !strings.Contains(out, "worker-a") {
		t.Fatal("missing process rows")
	}
}

func TestSpans(t *testing.T) {
	var c Collector
	runTraced(t, &c)
	spans := c.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans derived")
	}
	for _, s := range spans {
		if s.End <= s.Start {
			t.Fatalf("bad span %+v", s)
		}
	}
}

func TestWriteTimeline(t *testing.T) {
	var c Collector
	runTraced(t, &c)
	var b strings.Builder
	if err := c.WriteTimeline(&b, 40, 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "worker-a") || !strings.Contains(out, "#") {
		t.Fatalf("timeline missing content:\n%s", out)
	}
}

func TestWriteTimelineEmpty(t *testing.T) {
	var c Collector
	var b strings.Builder
	if err := c.WriteTimeline(&b, 40, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no activity") {
		t.Fatal("empty timeline should say so")
	}
}
