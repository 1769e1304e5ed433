package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// spawnTask starts a charge sequence either as an engine task or as
// the ordinary process body Task documents as its equivalent.
func spawnTask(e *Engine, asTask bool, name, phase string, dev Device, resource string, charges []Charge, then func()) {
	if asTask {
		e.Task(name, phase, dev, resource, charges, then)
		return
	}
	cs := slices.Clone(charges)
	e.Go(name, func(p *Proc) {
		p.SetPhase(phase)
		for _, c := range cs {
			dt := c.Dt
			if c.Dilate != nil {
				dt = c.Dilate(c.Cat, p.Now(), c.Dt)
			}
			if c.Res != nil {
				c.Res.UseCat(p, c.Cat, c.Bytes, dt)
			} else {
				p.WaitSpanOn(c.Cat, dev, resource, c.Bytes, dt)
			}
		}
		if then != nil {
			then()
		}
	})
}

// taskRun is everything a run lets a test observe.
type taskRun struct {
	lines    []string // interleaved events and spans
	log      []string // dilation calls and completion hooks, in call order
	end      float64
	err      string
	accounts []string // per-resource accounting
	ctr      CounterSnapshot
}

// taskSpec is one pre-drawn task: its charges, what its hook does, and
// an optional child task its hook spawns.
type taskSpec struct {
	name    string
	charges []Charge
	fire    bool
	child   *taskSpec
}

// taskProgram runs a seeded program of tasks — a random number of
// charges each, on a contended CPU, a capacity-2 DMA pool or
// resource-free, some with a dilation hook — beside ordinary processes
// that contend for the same resources, wait on a signal a task's hook
// fires, and spawn tasks mid-run; hooks spawn child tasks too. asTask
// picks how every task runs; nothing else differs between the modes.
func taskProgram(seed int64, asTask bool, until float64) taskRun {
	rng := rand.New(rand.NewSource(seed))
	e := New()
	var ctr Counters
	e.SetCounters(&ctr)
	rec := &chainRecorder{}
	e.Observe(rec)
	cpu := NewResource(e, "cpu", 1)
	cpu.SetDevice(DeviceCPU)
	dma := NewResource(e, "dma", 2)
	dma.SetDevice(DeviceDRAM)
	sig := NewSignal(e, "sig")
	var log []string
	dilate := func(cat Category, start, dt float64) float64 {
		log = append(log, fmt.Sprintf("dilate %s %.9g %.9g", cat, start, dt))
		if int(start*8)%3 == 0 {
			return dt * 1.5
		}
		return dt
	}

	var draw func(name string, depth int) *taskSpec
	draw = func(name string, depth int) *taskSpec {
		s := &taskSpec{name: name, fire: rng.Intn(4) == 0}
		for i := rng.Intn(chainCap + 1); i > 0; i-- {
			c := Charge{Cat: Category(rng.Intn(3)), Bytes: int64(rng.Intn(3) * 64), Dt: float64(rng.Intn(6)) * 0.125}
			switch rng.Intn(3) {
			case 0:
				c.Res = cpu
			case 1:
				c.Res = dma
			}
			if rng.Intn(3) == 0 {
				c.Dilate = dilate
			}
			s.charges = append(s.charges, c)
		}
		if depth < 2 && rng.Intn(3) == 0 {
			s.child = draw(name+".c", depth+1)
		}
		return s
	}
	var start func(s *taskSpec)
	start = func(s *taskSpec) {
		spawnTask(e, asTask, s.name, "ph."+s.name, DeviceDRAM, s.name+".fill", s.charges, func() {
			log = append(log, fmt.Sprintf("done %s %.9g", s.name, e.Now()))
			if s.fire {
				sig.Fire()
			}
			if s.child != nil {
				start(s.child)
			}
		})
	}

	nTasks := 2 + rng.Intn(5)
	for i := 0; i < nTasks; i++ {
		start(draw(Name("t", i), 0))
	}
	nProcs := 1 + rng.Intn(3)
	for i := 0; i < nProcs; i++ {
		type op struct {
			kind int
			dt   float64
			task *taskSpec
		}
		ops := make([]op, 2+rng.Intn(5))
		for j := range ops {
			ops[j] = op{kind: rng.Intn(5), dt: float64(rng.Intn(5)) * 0.25}
			if ops[j].kind == 4 {
				ops[j].task = draw(Name("p.t", i, j), 1)
			}
		}
		e.GoAt(float64(rng.Intn(2))*0.5, Name("p", i), func(p *Proc) {
			for _, o := range ops {
				switch o.kind {
				case 0:
					p.Wait(o.dt)
				case 1:
					cpu.UseCat(p, CatCompute, 0, o.dt)
				case 2:
					dma.UseSeq(p, []Charge{{Cat: CatDMA, Dt: o.dt}, {Cat: CatCompute, Dt: o.dt / 2}})
				case 3:
					sig.Wait(p)
				case 4:
					start(o.task)
				}
			}
		})
	}
	err := e.Run(until)
	r := taskRun{lines: rec.lines, log: log, end: e.Now(), err: fmt.Sprint(err), ctr: ctr.Snapshot()}
	for _, res := range []*Resource{cpu, dma} {
		r.accounts = append(r.accounts, fmt.Sprintf("%s busy=%v contention=%v waits=%d acquires=%d",
			res.Name(), res.BusySeconds(), res.ContentionSeconds(), res.Waits(), res.Acquires()))
	}
	return r
}

// sameRun fails t when two runs differ in anything a caller can
// observe. Handoff, self-resume and fused-step counts are how the
// engine ran the bodies, not what they did, so only they may differ.
func sameRun(t *testing.T, label string, proc, task taskRun) {
	t.Helper()
	if proc.end != task.end || proc.err != task.err {
		t.Errorf("%s: process run ended at %v with %q, task run at %v with %q", label, proc.end, proc.err, task.end, task.err)
	}
	if !reflect.DeepEqual(proc.lines, task.lines) {
		for i := 0; i < max(len(proc.lines), len(task.lines)); i++ {
			a, b := "<missing>", "<missing>"
			if i < len(proc.lines) {
				a = proc.lines[i]
			}
			if i < len(task.lines) {
				b = task.lines[i]
			}
			if a != b {
				t.Errorf("%s: stream line %d:\n  process: %s\n  task:    %s", label, i, a, b)
				break
			}
		}
	}
	if !reflect.DeepEqual(proc.log, task.log) {
		t.Errorf("%s: hook calls differ:\n  process: %v\n  task:    %v", label, proc.log, task.log)
	}
	if !reflect.DeepEqual(proc.accounts, task.accounts) {
		t.Errorf("%s: resource accounting differs:\n  process: %v\n  task:    %v", label, proc.accounts, task.accounts)
	}
	p, k := proc.ctr, task.ctr
	if p.EventsPopped != k.EventsPopped || p.Spawns != k.Spawns || p.SpansEmitted != k.SpansEmitted {
		t.Errorf("%s: counters differ beyond scheduling:\n  process: %+v\n  task:    %+v", label, p, k)
	}
}

// TestTaskMatchesProcess runs seeded programs with every task as an
// engine task and as the equivalent ordinary process: the event and
// span streams, hook calls, resource accounting, final time and error
// must be identical, including runs cut off at an until horizon.
func TestTaskMatchesProcess(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		until := 0.0
		if seed%3 == 0 {
			until = 0.25 * float64(1+seed%9)
		}
		proc := taskProgram(seed, false, until)
		task := taskProgram(seed, true, until)
		sameRun(t, fmt.Sprintf("seed %d until %v", seed, until), proc, task)
		if task.ctr.Handoffs > proc.ctr.Handoffs {
			t.Errorf("seed %d: tasks took %d handoffs, processes %d", seed, task.ctr.Handoffs, proc.ctr.Handoffs)
		}
	}
}

// A task stuck on a resource appears in the deadlock report exactly as
// the process would.
func TestTaskDeadlockReport(t *testing.T) {
	run := func(asTask bool) taskRun {
		e := New()
		rec := &chainRecorder{}
		e.Observe(rec)
		cpu := NewResource(e, "cpu0", 1)
		cpu.SetDevice(DeviceCPU)
		gate := NewSignal(e, "gate")
		e.Go("holder", func(p *Proc) {
			p.Wait(0.05)
			cpu.Acquire(p)
			gate.Wait(p) // holds the unit forever
		})
		spawnTask(e, asTask, "job", "opms", DeviceDRAM, "fpga0.fill", []Charge{
			{Cat: CatDMA, Dt: 0.1},
			{Cat: CatCompute, Dt: 0.2, Res: cpu},
		}, nil)
		err := e.Run(0)
		return taskRun{lines: rec.lines, end: e.Now(), err: fmt.Sprint(err)}
	}
	proc, task := run(false), run(true)
	sameRun(t, "deadlock", proc, task)
	if !strings.Contains(task.err, "job: acquire cpu0") {
		t.Fatalf("deadlock report %q does not name the stuck task", task.err)
	}
}

// A completion hook that panics fails the run with the message a
// panicking process body produces, and the run stops there.
func TestTaskHookPanic(t *testing.T) {
	run := func(asTask bool) taskRun {
		e := New()
		rec := &chainRecorder{}
		e.Observe(rec)
		cpu := NewResource(e, "cpu0", 1)
		e.Go("bystander", func(p *Proc) {
			for i := 0; i < 4; i++ {
				cpu.UseCat(p, CatCompute, 0, 0.1)
			}
		})
		spawnTask(e, asTask, "job", "opms", DeviceCPU, "cpu0", []Charge{
			{Cat: CatNetwork, Dt: 0.1, Res: cpu},
			{Cat: CatCompute, Dt: 0.1, Res: cpu},
		}, func() { panic("bad hook") })
		err := e.Run(0)
		return taskRun{lines: rec.lines, end: e.Now(), err: fmt.Sprint(err)}
	}
	proc, task := run(false), run(true)
	sameRun(t, "panic", proc, task)
	if want := `sim: process "job" panicked: bad hook`; task.err != want {
		t.Fatalf("error %q, want %q", task.err, want)
	}
}

// A task with no charges still starts, runs its hook at its start time
// and leaves nothing blocked.
func TestTaskWithoutCharges(t *testing.T) {
	e := New()
	var at float64 = -1
	e.Go("spawner", func(p *Proc) {
		p.Wait(2)
		e.Task("empty", "", DeviceUnknown, "", nil, func() { at = e.Now() })
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if at != 2 {
		t.Fatalf("hook ran at %v, want 2", at)
	}
}

func TestTaskTooManyCharges(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Task accepted more charges than it can hold")
		}
	}()
	New().Task("long", "", DeviceUnknown, "", make([]Charge, chainCap+1), nil)
}

// Finished processes are dropped as the run goes, but the survivors
// keep spawn order: among blocked processes sharing a name, the
// deadlock report still shows the most recently spawned one.
func TestProcsCompactionKeepsSpawnOrder(t *testing.T) {
	e := New()
	r1 := NewResource(e, "r1", 1)
	r2 := NewResource(e, "r2", 1)
	gate := NewSignal(e, "gate")
	for _, r := range []*Resource{r1, r2} {
		e.Go("holder."+r.Name(), func(p *Proc) {
			r.Acquire(p)
			gate.Wait(p)
		})
	}
	e.Go("spawner", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			e.Task("short", "", DeviceCPU, "cpu", []Charge{{Cat: CatCompute, Dt: 0.5}}, nil)
			switch i {
			case 300:
				e.Go("w", func(q *Proc) { r1.Acquire(q) })
			case 700:
				e.Go("w", func(q *Proc) { r2.Acquire(q) })
			}
			p.Wait(1)
		}
	})
	err := e.Run(0)
	d, ok := err.(*Deadlock)
	if !ok {
		t.Fatalf("want a deadlock, got %v", err)
	}
	if got := d.Stuck["w"]; got != "acquire r2" {
		t.Fatalf("w blocked on %q, want the later spawn's %q", got, "acquire r2")
	}
	if c := cap(e.procs); c > 64 {
		t.Fatalf("process list capacity %d after 1,005 spawns with at most 6 live", c)
	}
}
