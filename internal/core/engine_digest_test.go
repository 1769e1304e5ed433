package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"codesign/internal/fault"
	"codesign/internal/machine"
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

// digest folds the event stream, the span stream and the run's
// outcome into one short hex string.
func (d *digestObserver) digest(outcome string) string {
	h := sha256.New()
	fmt.Fprintf(h, "events %d %x\nspans %d %x\n%s",
		d.nev, d.events.Sum(nil), d.nsp, d.spans.Sum(nil), outcome)
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

// engineRun is what one reference run leaves: the digest of its
// event stream, span stream and outcome, and its engine counters.
type engineRun struct {
	stream string
	ctr    sim.CounterSnapshot
}

// digestRun runs one simulation under a digest observer and a
// process-wide counter sink; run reports the outcome it digests.
func digestRun(run func(sim.Observer) (string, error)) engineRun {
	obs := newDigestObserver()
	var ctr sim.Counters
	sim.InstallCounters(&ctr)
	outcome, err := run(obs)
	sim.InstallCounters(nil)
	if err != nil {
		outcome = err.Error()
	}
	return engineRun{obs.digest(outcome), ctr.Snapshot()}
}

// engineReferenceRuns runs every registered app's small run and the
// seeded primitive scenarios under a digest observer and a counter
// sink.
func engineReferenceRuns() map[string]engineRun {
	runs := map[string]engineRun{}
	// The registered spmv run is dense, so the model keeps every row on
	// the processor; a sparse repeated apply also drives the
	// SRAM-resident FPGA share.
	spmv, _ := LookupApp("spmv")
	spmv.Name = "spmv-sparse"
	sparse := spmv.Small()
	sparse.Density, sparse.RHS = 0.05, 4
	for _, a := range append(Apps(), spmv) {
		spec := a.Small()
		if a.Name == spmv.Name {
			spec = sparse
		}
		runs["app/"+a.Name] = digestRun(func(o sim.Observer) (string, error) {
			spec.Observer = o
			r, err := a.Run(spec)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%v %v", r.Seconds, r.GFLOPS), nil
		})
	}
	// The lu family's baseline modes, its functional path and lu's two
	// job-path ablations (asynchronous operand sends, whole-task
	// alternation); their outcomes add the functional residual.
	outcome := func(r *Result) string { return fmt.Sprintf("%v %v %v", r.Seconds, r.GFLOPS, r.MaxResidual) }
	for _, name := range []string{"lu", "chol"} {
		a, _ := LookupApp(name)
		variants := map[string]func(*Spec){
			"processor-only": func(s *Spec) { s.Mode = ProcessorOnly },
			"fpga-only":      func(s *Spec) { s.Mode = FPGAOnly },
			"functional":     func(s *Spec) { s.Functional = true },
		}
		for v, set := range variants {
			spec := a.Small()
			set(&spec)
			runs["app/"+name+"/"+v] = digestRun(func(o sim.Observer) (string, error) {
				spec.Observer = o
				r, err := a.Run(spec)
				if err != nil {
					return "", err
				}
				return outcome(r.Result), nil
			})
		}
	}
	lu, _ := LookupApp("lu")
	ablations := map[string]func(*LUConfig){
		"interruptible": func(c *LUConfig) { c.InterruptibleRoutines = true },
		"whole-task":    func(c *LUConfig) { c.WholeTaskOpMM = true },
	}
	for v, set := range ablations {
		s := lu.Small()
		cfg := LUConfig{Machine: s.Machine, N: s.N, B: s.B, PEs: s.PEs, BF: s.BF, L: s.L, Seed: s.Seed}
		set(&cfg)
		runs["app/lu/"+v] = digestRun(func(o sim.Observer) (string, error) {
			cfg.Observer = o
			r, err := RunLU(cfg)
			if err != nil {
				return "", err
			}
			return outcome(&r.Result), nil
		})
	}
	// The paths no app run above reaches: the stripe-granular opMM of
	// Figure 5 at all-software, split and all-FPGA shares; a sparse
	// single apply, whose FPGA share streams through the chunk loop
	// rather than sitting in SRAM; and an lu run that loses two nodes
	// and repartitions onto p-1 = 3 compute nodes, which do not divide
	// b = 20.
	for _, bf := range []int{0, 40, 120} {
		runs[fmt.Sprintf("opmm/bf%d", bf)] = digestRun(func(o sim.Observer) (string, error) {
			r, err := runOpMM(machine.XD1(), 120, 4, bf, o)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%v %v %v %v %v", r.Seconds, r.StripeTf, r.StripeTp, r.StripeTmem, r.StripeTcomm), nil
		})
	}
	streamed := spmv.Small()
	streamed.Density, streamed.RHS = 0.05, 1
	runs["app/spmv-streamed"] = digestRun(func(o sim.Observer) (string, error) {
		streamed.Observer = o
		r, err := spmv.Run(streamed)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%v %v %+v", r.Seconds, r.GFLOPS, r.Split), nil
	})
	runs["app/lu/degraded"] = digestRun(func(o sim.Observer) (string, error) {
		s := lu.Small()
		inj, err := fault.New(&fault.Spec{Events: []fault.Event{
			{Kind: fault.NodeKill, Node: 3, Start: 20e-6},
			{Kind: fault.NodeKill, Node: 4, Start: 30e-6},
		}}, s.Machine.Nodes)
		if err != nil {
			return "", err
		}
		r, err := RunLU(LUConfig{Machine: s.Machine, N: s.N, B: s.B, PEs: s.PEs, BF: s.BF, L: s.L, Seed: s.Seed,
			Observer: o, Faults: inj})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%v bf=%d l=%d", outcome(&r.Result), r.BF, r.L), nil
	})
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
		runs[fmt.Sprintf("scenario/%d", seed)] = engineRun{obs.digest(fmt.Sprintf("%v %v", e.Now(), err)), ctr.Snapshot()}
	}
	return runs
}

// TestEngineReferenceDigests pins everything the engine lets an
// observer see for every registered app's small run and for seeded
// primitive scenarios, in two parts. The stream part digests the raw
// event stream, the typed span stream and the run's outcome: a
// scheduler change that reorders one event or draws one sequence
// number differently changes a digest. The counter part pins the
// engine counters, which a change to how the engine runs a process
// (a coroutine switch, a fused boundary, a task step) legitimately
// moves while the stream stays put, and checks that every popped event
// is counted exactly once: as a callback, a handoff, a self-resume or a
// fused step.
func TestEngineReferenceDigests(t *testing.T) {
	runs := engineReferenceRuns()
	t.Run("stream", func(t *testing.T) {
		want := map[string]string{
			"app/cg":                  "6592ffac0112b5b9",
			"app/chol":                "11f56437e0adbe49",
			"app/chol/fpga-only":      "a13ede27e7d64cdf",
			"app/chol/functional":     "a13ede27e7d64cdf",
			"app/chol/processor-only": "0793a0f743f6ef4b",
			"app/fw":                  "da17385edcc439d9",
			"app/lu":                  "2ebb37c51b7a57b2",
			"app/lu/fpga-only":        "9013ca7f7db4fa01",
			"app/lu/functional":       "b68b10c07cf9ff86",
			"app/lu/interruptible":    "00fc63e78bb04c33",
			"app/lu/degraded":         "3ad343625da30050",
			"app/lu/processor-only":   "fefe66377337c84e",
			"app/lu/whole-task":       "029751481131170f",
			"app/mm":                  "0b409964a6e831f4",
			"app/qr":                  "af4f632988383dd4",
			"app/spmv":                "c8134bd1d495fd1c",
			"app/spmv-sparse":         "31f1063756db72c5",
			"app/spmv-streamed":       "3643ab620dae66ab",
			"opmm/bf0":                "f1d5ea01c0705ba4",
			"opmm/bf40":               "f9bd100409c39833",
			"opmm/bf120":              "0c05f9b70b72197e",
			"scenario/1":              "f474182b921221a5",
			"scenario/2":              "a1e1e7e362b46bb6",
			"scenario/3":              "4851cd3759a55777",
			"scenario/4":              "86922538afb65374",
			"scenario/5":              "f5564ed66e8e7944",
			"scenario/6":              "60604a61c93ae2af",
			"scenario/7":              "245a7bdf9a4951e3",
			"scenario/8":              "7f5dc27321ee463b",
			"scenario/9":              "572f0ec83fdf13b9",
			"scenario/10":             "71ed6472c1404b36",
			"scenario/11":             "c66593a91d20d96c",
			"scenario/12":             "2d21b7b4a1541928",
			"scenario/13":             "ca03b6d8ea5a6738",
			"scenario/14":             "717cf76acad3cef6",
			"scenario/15":             "0e47aabb65bcbcee",
			"scenario/16":             "95f6927290f5927b",
			"scenario/17":             "34358c18f770bfc0",
		}
		if len(runs) != len(want) {
			t.Errorf("%d runs digested, want %d", len(runs), len(want))
		}
		for k, r := range runs {
			if want[k] != r.stream {
				t.Errorf("%q: stream digest %s, want %s", k, r.stream, want[k])
			}
		}
	})
	t.Run("counters", func(t *testing.T) {
		want := map[string]string{
			"app/cg":                  "{EventsPopped:79 Callbacks:0 Handoffs:3 SelfResumes:46 FusedSteps:30 Spawns:17 QueueRecycles:1 Compactions:0 SpansEmitted:46}",
			"app/chol":                "{EventsPopped:1417 Callbacks:0 Handoffs:525 SelfResumes:20 FusedSteps:872 Spawns:216 QueueRecycles:1 Compactions:25 SpansEmitted:1115}",
			"app/chol/fpga-only":      "{EventsPopped:1417 Callbacks:0 Handoffs:525 SelfResumes:20 FusedSteps:872 Spawns:216 QueueRecycles:1 Compactions:25 SpansEmitted:1115}",
			"app/chol/functional":     "{EventsPopped:1417 Callbacks:0 Handoffs:525 SelfResumes:20 FusedSteps:872 Spawns:216 QueueRecycles:1 Compactions:25 SpansEmitted:1115}",
			"app/chol/processor-only": "{EventsPopped:914 Callbacks:0 Handoffs:567 SelfResumes:14 FusedSteps:333 Spawns:41 QueueRecycles:1 Compactions:23 SpansEmitted:777}",
			"app/fw":                  "{EventsPopped:5922 Callbacks:0 Handoffs:3317 SelfResumes:13 FusedSteps:2592 Spawns:870 QueueRecycles:1 Compactions:0 SpansEmitted:3468}",
			"app/lu":                  "{EventsPopped:2203 Callbacks:0 Handoffs:770 SelfResumes:28 FusedSteps:1405 Spawns:336 QueueRecycles:1 Compactions:47 SpansEmitted:1778}",
			"app/lu/fpga-only":        "{EventsPopped:2203 Callbacks:0 Handoffs:770 SelfResumes:28 FusedSteps:1405 Spawns:336 QueueRecycles:1 Compactions:47 SpansEmitted:1778}",
			"app/lu/functional":       "{EventsPopped:2203 Callbacks:0 Handoffs:770 SelfResumes:28 FusedSteps:1405 Spawns:336 QueueRecycles:1 Compactions:47 SpansEmitted:1778}",
			"app/lu/interruptible":    "{EventsPopped:2313 Callbacks:0 Handoffs:880 SelfResumes:34 FusedSteps:1399 Spawns:391 QueueRecycles:1 Compactions:29 SpansEmitted:1809}",
			"app/lu/degraded":         "{EventsPopped:1762 Callbacks:0 Handoffs:551 SelfResumes:57 FusedSteps:1154 Spawns:276 QueueRecycles:1 Compactions:47 SpansEmitted:1455}",
			"app/lu/processor-only":   "{EventsPopped:1393 Callbacks:0 Handoffs:789 SelfResumes:24 FusedSteps:580 Spawns:61 QueueRecycles:1 Compactions:45 SpansEmitted:1241}",
			"app/lu/whole-task":       "{EventsPopped:1801 Callbacks:0 Handoffs:755 SelfResumes:29 FusedSteps:1017 Spawns:206 QueueRecycles:1 Compactions:49 SpansEmitted:1520}",
			"app/mm":                  "{EventsPopped:594 Callbacks:0 Handoffs:594 SelfResumes:0 FusedSteps:0 Spawns:12 QueueRecycles:1 Compactions:0 SpansEmitted:432}",
			"app/qr":                  "{EventsPopped:409 Callbacks:0 Handoffs:177 SelfResumes:7 FusedSteps:225 Spawns:81 QueueRecycles:1 Compactions:0 SpansEmitted:302}",
			"app/spmv":                "{EventsPopped:2 Callbacks:0 Handoffs:1 SelfResumes:1 FusedSteps:0 Spawns:1 QueueRecycles:1 Compactions:0 SpansEmitted:1}",
			"app/spmv-sparse":         "{EventsPopped:16 Callbacks:0 Handoffs:3 SelfResumes:5 FusedSteps:8 Spawns:6 QueueRecycles:1 Compactions:0 SpansEmitted:9}",
			"app/spmv-streamed":       "{EventsPopped:9 Callbacks:0 Handoffs:7 SelfResumes:2 FusedSteps:0 Spawns:2 QueueRecycles:1 Compactions:0 SpansEmitted:4}",
			"opmm/bf0":                "{EventsPopped:341 Callbacks:0 Handoffs:177 SelfResumes:14 FusedSteps:150 Spawns:6 QueueRecycles:1 Compactions:40 SpansEmitted:330}",
			"opmm/bf40":               "{EventsPopped:801 Callbacks:0 Handoffs:651 SelfResumes:0 FusedSteps:150 Spawns:11 QueueRecycles:1 Compactions:35 SpansEmitted:630}",
			"opmm/bf120":              "{EventsPopped:506 Callbacks:0 Handoffs:352 SelfResumes:4 FusedSteps:150 Spawns:11 QueueRecycles:1 Compactions:95 SpansEmitted:480}",
			"scenario/1":              "{EventsPopped:26 Callbacks:0 Handoffs:13 SelfResumes:1 FusedSteps:12 Spawns:8 QueueRecycles:1 Compactions:1 SpansEmitted:18}",
			"scenario/2":              "{EventsPopped:153 Callbacks:6 Handoffs:84 SelfResumes:9 FusedSteps:54 Spawns:13 QueueRecycles:1 Compactions:7 SpansEmitted:111}",
			"scenario/3":              "{EventsPopped:59 Callbacks:8 Handoffs:34 SelfResumes:2 FusedSteps:15 Spawns:14 QueueRecycles:1 Compactions:1 SpansEmitted:27}",
			"scenario/4":              "{EventsPopped:43 Callbacks:1 Handoffs:21 SelfResumes:13 FusedSteps:8 Spawns:5 QueueRecycles:1 Compactions:1 SpansEmitted:32}",
			"scenario/5":              "{EventsPopped:8 Callbacks:0 Handoffs:5 SelfResumes:0 FusedSteps:3 Spawns:3 QueueRecycles:1 Compactions:0 SpansEmitted:4}",
			"scenario/6":              "{EventsPopped:29 Callbacks:3 Handoffs:16 SelfResumes:4 FusedSteps:6 Spawns:6 QueueRecycles:1 Compactions:0 SpansEmitted:13}",
			"scenario/7":              "{EventsPopped:18 Callbacks:2 Handoffs:13 SelfResumes:0 FusedSteps:3 Spawns:7 QueueRecycles:1 Compactions:1 SpansEmitted:7}",
			"scenario/8":              "{EventsPopped:129 Callbacks:4 Handoffs:84 SelfResumes:5 FusedSteps:36 Spawns:11 QueueRecycles:1 Compactions:8 SpansEmitted:98}",
			"scenario/9":              "{EventsPopped:47 Callbacks:6 Handoffs:31 SelfResumes:3 FusedSteps:7 Spawns:14 QueueRecycles:1 Compactions:1 SpansEmitted:20}",
			"scenario/10":             "{EventsPopped:45 Callbacks:0 Handoffs:23 SelfResumes:15 FusedSteps:7 Spawns:5 QueueRecycles:1 Compactions:0 SpansEmitted:33}",
			"scenario/11":             "{EventsPopped:25 Callbacks:1 Handoffs:12 SelfResumes:5 FusedSteps:7 Spawns:4 QueueRecycles:1 Compactions:0 SpansEmitted:18}",
			"scenario/12":             "{EventsPopped:82 Callbacks:3 Handoffs:55 SelfResumes:9 FusedSteps:15 Spawns:9 QueueRecycles:1 Compactions:1 SpansEmitted:64}",
			"scenario/13":             "{EventsPopped:58 Callbacks:2 Handoffs:37 SelfResumes:2 FusedSteps:17 Spawns:9 QueueRecycles:1 Compactions:5 SpansEmitted:43}",
			"scenario/14":             "{EventsPopped:114 Callbacks:4 Handoffs:68 SelfResumes:10 FusedSteps:32 Spawns:12 QueueRecycles:1 Compactions:1 SpansEmitted:75}",
			"scenario/15":             "{EventsPopped:19 Callbacks:0 Handoffs:15 SelfResumes:1 FusedSteps:3 Spawns:6 QueueRecycles:1 Compactions:1 SpansEmitted:7}",
			"scenario/16":             "{EventsPopped:45 Callbacks:2 Handoffs:27 SelfResumes:5 FusedSteps:11 Spawns:5 QueueRecycles:1 Compactions:0 SpansEmitted:29}",
			"scenario/17":             "{EventsPopped:12 Callbacks:0 Handoffs:11 SelfResumes:0 FusedSteps:1 Spawns:7 QueueRecycles:1 Compactions:0 SpansEmitted:4}",
		}
		if len(runs) != len(want) {
			t.Errorf("%d runs counted, want %d", len(runs), len(want))
		}
		for k, r := range runs {
			if g := fmt.Sprintf("%+v", r.ctr); want[k] != g {
				t.Errorf("%q: counters\n  got  %s\n  want %s", k, g, want[k])
			}
			c := r.ctr
			if n := c.Callbacks + c.Handoffs + c.SelfResumes + c.FusedSteps; n != c.EventsPopped {
				t.Errorf("%q: %d events popped, but callbacks, handoffs, self-resumes and fused steps count %d",
					k, c.EventsPopped, n)
			}
		}
	})
}
