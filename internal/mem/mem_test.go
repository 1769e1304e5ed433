package mem

import (
	"math"
	"testing"

	"codesign/internal/sim"
)

func TestStreamTime(t *testing.T) {
	e := sim.New()
	d := NewDRAM(e, 1000)
	if got := d.StreamTime(2500); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("StreamTime = %v, want 2.5", got)
	}
}

func TestStreamChargesTime(t *testing.T) {
	e := sim.New()
	d := NewDRAM(e, 100)
	e.Go("fpga", func(p *sim.Proc) {
		d.Stream(p, 300)
		if p.Now() != 3 {
			t.Errorf("stream finished at %v, want 3", p.Now())
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if d.BytesStreamed() != 300 {
		t.Fatalf("BytesStreamed = %d", d.BytesStreamed())
	}
	if math.Abs(d.BusySeconds()-3) > 1e-12 {
		t.Fatalf("BusySeconds = %v", d.BusySeconds())
	}
}

func TestStreamsSerialize(t *testing.T) {
	e := sim.New()
	d := NewDRAM(e, 100)
	var t1, t2 float64
	e.Go("a", func(p *sim.Proc) { d.Stream(p, 100); t1 = p.Now() })
	e.Go("b", func(p *sim.Proc) { d.Stream(p, 100); t2 = p.Now() })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if t1 != 1 || t2 != 2 {
		t.Fatalf("stream finishes %v, %v; want 1, 2", t1, t2)
	}
}

func TestBadBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDRAM(sim.New(), 0)
}

func TestSRAMGeometry(t *testing.T) {
	s := NewSRAM(4, 2<<20) // 4 banks x 2 MB
	if s.TotalBytes() != 8<<20 {
		t.Fatalf("total = %d", s.TotalBytes())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSRAM(0, 2<<20)
}
