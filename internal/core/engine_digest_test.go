package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"codesign/internal/sim"
)

// digestObserver hashes the engine's raw event stream and its span
// stream as they arrive, so a run's whole observable output reduces to
// two digests without retaining it.
type digestObserver struct {
	events, spans hash.Hash
	nev, nsp      int
}

func newDigestObserver() *digestObserver {
	return &digestObserver{events: sha256.New(), spans: sha256.New()}
}

func (d *digestObserver) Event(t float64, proc, action string) {
	fmt.Fprintf(d.events, "%v|%s|%s\n", t, proc, action)
	d.nev++
}

func (d *digestObserver) Span(s sim.SpanEvent) {
	fmt.Fprintf(d.spans, "%d|%d|%s|%s|%s|%d|%v|%v\n",
		s.Category, s.Device, s.Proc, s.Resource, s.Phase, s.Bytes, s.Start, s.End)
	d.nsp++
}

// digest folds the event stream, the span stream, the counter snapshot
// and the run's outcome into one short hex string.
func (d *digestObserver) digest(ctr *sim.Counters, outcome string) string {
	h := sha256.New()
	fmt.Fprintf(h, "events %d %x\nspans %d %x\ncounters %+v\n%s",
		d.nev, d.events.Sum(nil), d.nsp, d.spans.Sum(nil), ctr.Snapshot(), outcome)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// engineScenario builds a seeded program on the engine's primitives:
// processes that wait, contend on resources (plain and fused charge
// sequences), exchange mailbox messages, wait on and fire signals, meet
// at barriers and spawn children from inside a process, with
// scheduler-context callbacks mixed in. Some seeds deadlock; that
// report is part of the output too.
func engineScenario(e *sim.Engine, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	nProcs := 3 + rng.Intn(6)
	cpu := sim.NewResource(e, "cpu", 1)
	cpu.SetDevice(sim.DeviceCPU)
	dma := sim.NewResource(e, "dma", 2)
	dma.SetDevice(sim.DeviceDRAM)
	mb := sim.NewMailbox(e, "box")
	sig := sim.NewSignal(e, "go")
	bar := sim.NewBarrier(e, "bar", 1+rng.Intn(nProcs))

	type op struct {
		kind int
		dt   float64
		n    int
	}
	script := func(n int) []op {
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{kind: rng.Intn(11), dt: float64(rng.Intn(8)) * 0.25, n: 1 + rng.Intn(4)}
		}
		return ops
	}
	charges := func(o op) []sim.Charge {
		cs := make([]sim.Charge, o.n+1)
		for i := range cs {
			cs[i] = sim.Charge{Cat: sim.Category(i % 3), Bytes: int64(64 * i), Dt: o.dt + float64(i)*0.125}
		}
		return cs
	}
	var body func(ops []op, depth int) func(p *sim.Proc)
	body = func(ops []op, depth int) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			for _, o := range ops {
				switch o.kind {
				case 0:
					p.Wait(o.dt)
				case 1:
					p.WaitUntil(p.Now() + o.dt)
				case 2:
					cpu.UseCat(p, sim.CatCompute, 0, o.dt)
				case 3:
					cpu.UseSeq(p, charges(o))
				case 4:
					dma.UseSeq(p, charges(o))
				case 5:
					p.WaitSeq(sim.DeviceLink, "link", charges(o))
				case 6:
					mb.Put(o.n)
					p.WaitSpan(sim.CatNetwork, "nic", 8, o.dt)
				case 7:
					mb.Get(p)
				case 8:
					if o.n%2 == 0 {
						sig.Fire()
					} else {
						sig.Wait(p)
					}
				case 9:
					bar.Arrive(p)
				case 10:
					if depth < 2 {
						child := script(o.n)
						e.GoAt(p.Now()+o.dt, sim.Name(p.Name(), o.n), body(child, depth+1))
					}
					e.At(p.Now()+o.dt, func() { mb.Put(-1) })
				}
			}
		}
	}
	for i := 0; i < nProcs; i++ {
		e.GoAt(float64(rng.Intn(3)), sim.Name("p", i), body(script(2+rng.Intn(10)), 0))
	}
}

// TestEngineReferenceDigests pins everything the engine lets an
// observer see — the raw event stream, the typed span stream, the
// engine counters and the run's error text — for every registered
// app's small run and for seeded primitive scenarios. The expected
// digests were recorded on the engine these runs must keep matching;
// a scheduler change that reorders one event, draws one sequence
// number differently or miscounts one handoff changes a digest.
func TestEngineReferenceDigests(t *testing.T) {
	want := map[string]string{
		"app/lu":      "ec607fe351f3a439",
		"app/fw":      "e49edda4d7817bd6",
		"app/mm":      "b138148b52fb2b4e",
		"app/spmv":    "3ce2b6872e97b3fd",
		"app/chol":    "ec48b45a0e8af3c5",
		"app/qr":      "d482e2e0e874e4c6",
		"app/cg":      "3170b379c5464b85",
		"scenario/1":  "c97f00d52bbe46b8",
		"scenario/2":  "f0fcdb503733d18e",
		"scenario/3":  "bab2ef264c6f7ecd",
		"scenario/4":  "dbe131c0f092d712",
		"scenario/5":  "828be3f41eec9131",
		"scenario/6":  "0892c81b6c3e36d0",
		"scenario/7":  "7e8d27297eb06796",
		"scenario/8":  "296e90ee08f90b95",
		"scenario/9":  "c3b94b49c5a93ee1",
		"scenario/10": "0d7cba87bc7fab3d",
		"scenario/11": "e40a9a5207423803",
		"scenario/12": "b2ba41c03dc6f180",
		"scenario/13": "84f7019740f4afb5",
		"scenario/14": "a0ba7f79829d929f",
		"scenario/15": "50f95e4e6e817532",
		"scenario/16": "28099f76868efc4a",
		"scenario/17": "3041043fc99c962a",
	}

	got := map[string]string{}
	for _, a := range Apps() {
		spec := a.Small()
		obs := newDigestObserver()
		spec.Observer = obs
		var ctr sim.Counters
		sim.InstallCounters(&ctr)
		r, err := a.Run(spec)
		sim.InstallCounters(nil)
		outcome := fmt.Sprint(err)
		if err == nil {
			outcome = fmt.Sprintf("%v %v", r.Seconds, r.GFLOPS)
		}
		got["app/"+a.Name] = obs.digest(&ctr, outcome)
	}
	for seed := int64(1); seed <= 17; seed++ {
		// Odd seeds stop at a horizon, unwinding whatever is still
		// parked; even seeds run until the queue drains. The last one
		// also has a process panic mid-run.
		until := 0.0
		if seed%2 == 1 {
			until = 3 + float64(seed%7)
		}
		e := sim.New()
		var ctr sim.Counters
		e.SetCounters(&ctr)
		obs := newDigestObserver()
		e.Observe(obs)
		engineScenario(e, seed)
		if seed == 17 {
			e.GoAt(1.5, "boom", func(p *sim.Proc) {
				p.Wait(0.5)
				panic("boom")
			})
		}
		err := e.Run(until)
		got[fmt.Sprintf("scenario/%d", seed)] = obs.digest(&ctr, fmt.Sprintf("%v %v", e.Now(), err))
	}
	if len(got) != len(want) {
		t.Errorf("%d runs digested, want %d", len(got), len(want))
	}
	for k, g := range got {
		if want[k] != g {
			t.Errorf("%q: digest %s, want %s", k, g, want[k])
		}
	}
}
