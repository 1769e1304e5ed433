package core

import (
	"reflect"
	"testing"

	"codesign/internal/fault"
	"codesign/internal/fpga"
	"codesign/internal/machine"
	"codesign/internal/trace"
)

// direct runs each registered app through its typed entry point, the
// way callers wired the runs by hand before the registry.
var direct = map[string]func(Spec) (*Result, error){
	"lu": func(s Spec) (*Result, error) {
		r, err := RunLU(LUConfig{Machine: s.Machine, N: s.N, B: s.B, PEs: s.PEs, BF: s.BF, L: s.L,
			Mode: s.Mode, Functional: s.Functional, Seed: s.Seed, Observer: s.Observer})
		if err != nil {
			return nil, err
		}
		return &r.Result, nil
	},
	"fw": func(s Spec) (*Result, error) {
		r, err := RunFW(FWConfig{Machine: s.Machine, N: s.N, B: s.B, PEs: s.PEs, L1: s.L1,
			Mode: s.Mode, Functional: s.Functional, Seed: s.Seed, Observer: s.Observer})
		if err != nil {
			return nil, err
		}
		return &r.Result, nil
	},
	"mm": func(s Spec) (*Result, error) {
		r, err := RunMM(MMConfig{Machine: s.Machine, N: s.N, PEs: s.PEs, BF: s.BF,
			Mode: s.Mode, Functional: s.Functional, Seed: s.Seed, Observer: s.Observer})
		if err != nil {
			return nil, err
		}
		return &r.Result, nil
	},
	"spmv": func(s Spec) (*Result, error) {
		r, err := RunSpMV(SpMVConfig{Machine: s.Machine, N: s.N, Density: s.Density, PEs: s.PEs,
			RowsFPGA: s.BF, Mode: s.Mode, Seed: s.Seed, Observer: s.Observer})
		if err != nil {
			return nil, err
		}
		return &r.Result, nil
	},
	"chol": func(s Spec) (*Result, error) {
		r, err := RunCholesky(CholConfig{Machine: s.Machine, N: s.N, B: s.B, PEs: s.PEs, BF: s.BF, L: s.L,
			Mode: s.Mode, Functional: s.Functional, Seed: s.Seed, Observer: s.Observer})
		if err != nil {
			return nil, err
		}
		return &r.Result, nil
	},
	"qr": func(s Spec) (*Result, error) {
		r, err := RunQR(QRConfig{Machine: s.Machine, N: s.N, B: s.B, PEs: s.PEs, BF: s.BF,
			Mode: s.Mode, Functional: s.Functional, Seed: s.Seed, Observer: s.Observer})
		if err != nil {
			return nil, err
		}
		return &r.Result, nil
	},
	"cg": func(s Spec) (*Result, error) {
		r, err := RunCG(CGConfig{Machine: s.Machine, N: s.N, Density: s.Density, PEs: s.PEs,
			RowsFPGA: s.BF, Mode: s.Mode, Seed: s.Seed, Observer: s.Observer})
		if err != nil {
			return nil, err
		}
		return &r.Result, nil
	},
}

// TestRegistryRunMatchesDirectCalls requires every registry entry to
// run exactly the typed entry point it wraps: equal Results and equal
// span streams, in the hybrid design and a baseline.
func TestRegistryRunMatchesDirectCalls(t *testing.T) {
	for _, app := range Apps() {
		call, ok := direct[app.Name]
		if !ok {
			t.Fatalf("%s: registered but missing from the direct-call table", app.Name)
		}
		for _, mode := range []Mode{Hybrid, ProcessorOnly} {
			s := app.Small()
			s.Mode, s.Functional, s.Density, s.L, s.L1 = mode, true, 0.05, 2, 1
			gotRec, wantRec := trace.NewRecorder(), trace.NewRecorder()
			s.Observer = gotRec
			got, err := app.Run(s)
			if err != nil {
				t.Fatalf("%s %s: %v", app.Name, mode, err)
			}
			s.Observer = wantRec
			want, err := call(s)
			if err != nil {
				t.Fatalf("%s %s direct: %v", app.Name, mode, err)
			}
			if !reflect.DeepEqual(*got.Result, *want) {
				t.Errorf("%s %s: registry result %+v, direct %+v", app.Name, mode, *got.Result, *want)
			}
			if !reflect.DeepEqual(gotRec.Spans(), wantRec.Spans()) {
				t.Errorf("%s %s: span streams differ", app.Name, mode)
			}
			if title, details := got.Describe(); title == "" || len(details) == 0 {
				t.Errorf("%s: empty report", app.Name)
			}
		}
	}
}

func TestRegistryEntries(t *testing.T) {
	seen := map[string]bool{}
	dev := machine.XD1().Device
	for _, app := range Apps() {
		if seen[app.Name] {
			t.Errorf("duplicate app name %q", app.Name)
		}
		seen[app.Name] = true
		if _, err := fpga.Place(app.Design(1), dev); err != nil {
			t.Errorf("%s: design family does not place at k=1 on %s: %v", app.Name, dev.Name, err)
		}
		if got, err := LookupApp(app.Name); err != nil || got.Name != app.Name {
			t.Errorf("LookupApp(%q) = %q, %v", app.Name, got.Name, err)
		}
	}
	if _, err := LookupApp("fft"); err == nil {
		t.Error("unknown app found")
	}
}

// TestPriceMatchesRun prices every app with a model half at its small
// run's placed clock and bandwidth, and requires the run's own split,
// prediction and predicted binding exactly: the sweep's model method
// and a simulation read one model half and cannot drift apart.
func TestPriceMatchesRun(t *testing.T) {
	for _, app := range Apps() {
		if app.Price == nil {
			continue
		}
		for _, mode := range []Mode{Hybrid, ProcessorOnly, FPGAOnly} {
			for _, density := range []float64{0, 0.05} {
				s := app.Small()
				s.Mode, s.Density = mode, density
				res, err := app.Run(s)
				if err != nil {
					t.Fatalf("%s %s: %v", app.Name, mode, err)
				}
				placed, err := fpga.Place(app.Design(s.PEs), s.Machine.Device)
				if err != nil {
					t.Fatal(err)
				}
				pr, err := app.Price(Pricing{Machine: s.Machine, Proc: s.Machine.Processor(),
					N: s.N, B: s.B, K: s.PEs, Ff: placed.FreqHz,
					Bd:   machine.EffectiveBd(s.Machine.RawFPGADRAMBandwidth, placed.FreqHz),
					Mode: mode, BF: s.BF, L: s.L, L1: s.L1, Density: density})
				if err != nil {
					t.Fatalf("%s %s: %v", app.Name, mode, err)
				}
				if pr.Split != res.Split || pr.Prediction != res.Prediction || pr.Binding != res.Binding {
					t.Errorf("%s %s density %g: priced %+v, run split %+v prediction %+v binding %v",
						app.Name, mode, density, pr, res.Split, res.Prediction, res.Binding)
				}
			}
		}
	}
}

// TestGeometryChecksPrecedePlacement requires each app's geometry
// error, wrapped as its Run reports it, before any design is placed.
func TestGeometryChecksPrecedePlacement(t *testing.T) {
	bad := map[string]string{
		"lu":   "core: block size 21 must divide n=120",
		"chol": "core: block size 21 must divide n=120",
		"qr":   "core: block size 21 must divide n=120",
		"fw":   "core: b*p=126 must divide n=96",
		"mm":   "core: n=121 must be a multiple of k=4",
		"spmv": "core: spmv needs n > 0",
		"cg":   "core: cg needs n > 0",
	}
	for _, app := range Apps() {
		s := app.Small()
		s.B = 21
		switch app.Name {
		case "mm":
			s.N = 121
		case "spmv", "cg":
			s.N = 0
		}
		// A device nothing fits on: placement would fail if it ran.
		s.Machine.Device.Slices = 1
		_, err := app.Run(s)
		if want := bad[app.Name]; err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", app.Name, err, want)
		}
	}
}

// TestUnreadAxesLeaveRunUnchanged varies each axis an entry marks
// unread and requires an identical Result (AxisL covers L and L1).
func TestUnreadAxesLeaveRunUnchanged(t *testing.T) {
	vary := []struct {
		bit Axis
		set func(*Spec)
	}{
		{AxisB, func(s *Spec) { s.B = 40 }},
		{AxisBF, func(s *Spec) { s.BF = 3 }},
		{AxisL, func(s *Spec) { s.L, s.L1 = 2, 1 }},
		{AxisDensity, func(s *Spec) { s.Density = 0.1 }},
	}
	for _, app := range Apps() {
		want, err := app.Run(app.Small())
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		for _, v := range vary {
			if app.Unread&v.bit == 0 {
				continue
			}
			s := app.Small()
			v.set(&s)
			got, err := app.Run(s)
			if err != nil {
				t.Fatalf("%s: axis %d is marked unread, but varying it fails: %v", app.Name, v.bit, err)
			}
			if !reflect.DeepEqual(*got.Result, *want.Result) || got.Split != want.Split {
				t.Errorf("%s: axis %d is marked unread, but varying it changes the run", app.Name, v.bit)
			}
		}
	}
}

// TestCGReadsDensity pins the cg density wiring: a sparse operator
// does less work than the dense one.
func TestCGReadsDensity(t *testing.T) {
	cg, err := LookupApp("cg")
	if err != nil {
		t.Fatal(err)
	}
	flops := func(density float64) float64 {
		s := cg.Small()
		s.N, s.Density = 256, density
		r, err := cg.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return r.Flops
	}
	if dense, sparse := flops(0), flops(0.02); dense == sparse {
		t.Fatalf("density 0.02 ran the dense operator: %g flops both", dense)
	}
}

// TestRunFaultSupport requires apps marked Faults to run under an
// injector and be slowed by it, and every other app to reject one.
func TestRunFaultSupport(t *testing.T) {
	var slow []fault.Event
	for node := 0; node < 6; node++ {
		slow = append(slow, fault.Event{Kind: fault.CPUSlow, Node: node, Factor: 0.5})
	}
	for _, app := range Apps() {
		nominal, err := app.Run(app.Small())
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		inj, err := fault.New(&fault.Spec{Events: slow}, 6)
		if err != nil {
			t.Fatal(err)
		}
		s := app.Small()
		s.Faults = inj
		faulted, err := app.Run(s)
		switch {
		case !app.Faults && err == nil:
			t.Errorf("%s: accepted a fault injector", app.Name)
		case app.Faults && err != nil:
			t.Errorf("%s: %v", app.Name, err)
		case app.Faults && faulted.Seconds <= nominal.Seconds:
			t.Errorf("%s: halving every processor left the run at %gs (nominal %gs)", app.Name, faulted.Seconds, nominal.Seconds)
		}
	}
}

// TestExpectedPhaseIsRecorded requires the phase each prediction is
// for to be one the run records, so -analyze and tracediff can compare
// them; spmv is also run as SpMM, whose resident applies record a
// different phase.
func TestExpectedPhaseIsRecorded(t *testing.T) {
	for _, app := range Apps() {
		for _, rhs := range []int{0, 4} {
			s := app.Small()
			s.RHS = rhs
			rec := trace.NewRecorder()
			s.Observer = rec
			r, err := app.Run(s)
			if err != nil {
				t.Fatalf("%s: %v", app.Name, err)
			}
			if r.Phase == "" {
				continue
			}
			found := false
			for _, sp := range rec.Spans() {
				found = found || sp.Phase == r.Phase
			}
			if !found {
				t.Errorf("%s rhs=%d: expected binding for phase %q, which the run never records", app.Name, rhs, r.Phase)
			}
		}
	}
}

func TestSolveShare(t *testing.T) {
	solved := func() (int, int) { return 7, 3 }
	for _, c := range []struct {
		mode         Mode
		share, total int
		want         int
		err          string
	}{
		{ProcessorOnly, 5, 10, 0, ""},
		{FPGAOnly, 5, 10, 10, ""},
		{Hybrid, 3, 10, 3, ""},
		{Hybrid, -1, 10, 7, ""},
		{Hybrid, 11, 10, 0, "bf=11 out of [0,10]"},
		{Hybrid, -1, 5, 0, "bf=7 out of [0,5]"},
		{FPGAOnly, 0, -4, 0, "bf=-4 out of [0,-4]"},
	} {
		got, err := SolveShare(c.mode, "bf", c.share, c.total, solved)
		if (err == nil) != (c.err == "") || err != nil && err.Error() != c.err || err == nil && got != c.want {
			t.Errorf("SolveShare(%s, %d, %d) = %d, %v; want %d, %q", c.mode, c.share, c.total, got, err, c.want, c.err)
		}
	}
}
