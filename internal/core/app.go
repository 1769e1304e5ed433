package core

import (
	"fmt"
	"slices"
	"strings"

	"codesign/internal/cpu"
	"codesign/internal/fault"
	"codesign/internal/fpga"
	"codesign/internal/machine"
	"codesign/internal/model"
	"codesign/internal/obs"
	"codesign/internal/sim"
)

// App is one registered application: the single definition that every
// surface selecting an app by name reads — hybridsim, tracediff, the
// sweep and its span archive, and the degraded-mode study (DESIGN.md
// §15). Its model half (Check, MaxPEs, Price) is the one copy of the
// app's closed form: its Run function and the sweep both call it.
// Adding a workload means adding its Run function and one entry to the
// registry.
type App struct {
	// Name selects the app (-app, Grid.Apps, trace.Meta.App).
	Name string
	// N and B are the default problem and block sizes: the paper's
	// (Section 6.1) for lu, fw and mm, LU's for chol and qr, and an
	// affordable size for spmv and cg; B is 0 without block structure.
	N, B int
	// Design builds the app's FPGA design family at k PEs.
	Design func(k int) fpga.Design
	// BlockPEs reports that the PE array must divide the block size,
	// so MaxPEs shrinks the largest fitting array until it does (fw).
	BlockPEs bool
	// Unread is the set of design-space axes the app never reads: two
	// Specs that differ only in them run identically.
	Unread Axis
	// Faults reports whether Run accepts a fault injector.
	Faults bool
	// Check rejects a geometry the app cannot run — node count, problem
	// size n, block size b, PE count k — before anything is placed.
	Check func(nodes, n, b, k int) error
	// Price is the app's closed-form half: the Eq. 1/4/5/6 split and
	// the Section 4.5 prediction at it. Nil when the app has none (cg),
	// which keeps it out of the sweep.
	Price func(Pricing) (Priced, error)

	// killErr, when set, is why the app rejects node-kill faults.
	killErr        string
	smallN, smallB int
	run            func(Spec) (AppResult, error)
}

// Axis is a set of design-space axes, the Spec fields a sweep varies.
type Axis uint8

// The axes an app may leave unread.
const (
	// AxisB is the block size B.
	AxisB Axis = 1 << iota
	// AxisBF is the FPGA share BF.
	AxisBF
	// AxisL is the depth axis: L (Eq. 5) or L1 (Eq. 6). An app reads
	// at most one of the two.
	AxisL
	// AxisDensity is the operator density.
	AxisDensity
)

// Spec is one run of a registered app: the union of the per-app
// configs. Each app reads the fields it needs and ignores the rest.
type Spec struct {
	// Machine is the system; zero value means one Cray XD1 chassis.
	Machine machine.Config
	// N is the problem size, B the block size.
	N, B int
	// PEs is the design size; 0 means the largest that fits.
	PEs int
	// BF is the FPGA share: stripe rows (lu, chol, qr, mm) or operator
	// rows (spmv, cg); -1 solves the model.
	BF int
	// L is the lu and chol panel pipeline depth (-1 solves Eq. 5).
	L int
	// L1 is fw's processor ops per phase (-1 solves Eq. 6).
	L1 int
	// Mode selects hybrid or a baseline.
	Mode Mode
	// Density is the spmv and cg operator density (0 = dense).
	Density float64
	// RHS > 1 runs spmv as SpMM with that many applies.
	RHS int
	// Functional carries real data through the run and checks it.
	Functional bool
	// Seed drives input generation.
	Seed int64
	// Observer receives the structured telemetry stream.
	Observer sim.Observer
	// Telemetry attaches a span summary (a trace.Summary folded as the
	// run emits spans) to the result.
	Telemetry bool
	// Faults is the fault injector (apps with App.Faults only).
	Faults *fault.Injector
	// Metrics receives live core_* samples (lu and fw).
	Metrics *obs.Registry
}

// Split is a run's resolved workload partition; the fields an app
// does not partition stay zero.
type Split struct {
	// BF and BP are the FPGA and processor rows: per stripe (lu, chol,
	// qr, mm) or of the operator (spmv, cg).
	BF, BP int
	// L is the panel pipeline depth (lu, chol).
	L int
	// L1 and L2 are fw's processor and FPGA ops per phase.
	L1, L2 int
}

// AppResult is a registered app's run in app-neutral form.
type AppResult struct {
	// Result is the shared outcome of the run.
	*Result
	// Split is the partition the run used.
	Split Split
	// Prediction is the Section 4.5 forecast at the split (zero for
	// cg, which has no closed-form prediction).
	Prediction model.Prediction
	// Phase names the phase whose binding the model predicts ("" for
	// cg).
	Phase string
	// Binding is the model's predicted binding for Phase.
	Binding model.Binding

	detail appRun
}

// Expected returns the model's predicted binding per phase, the
// -analyze agreement column (nil for cg).
func (r AppResult) Expected() map[string]model.Binding {
	if r.Phase == "" {
		return nil
	}
	return map[string]model.Binding{r.Phase: r.Binding}
}

// Detail is one labelled line of a run's app-specific report.
type Detail struct {
	// Label names the line ("partition", "model prediction", ...).
	Label string
	// Text is the line's content.
	Text string
}

// Describe returns the app's report title and its app-specific lines,
// the part of hybridsim's report that differs between apps, ending
// with the measured-vs-predicted throughput when the app predicts.
func (r AppResult) Describe() (title string, details []Detail) {
	title, details = r.detail.describe()
	if p := r.Prediction; p.GFLOPS > 0 {
		details = append(details, Detail{"model prediction",
			fmt.Sprintf("%.3f GFLOPS (measured/predicted = %.1f%%)", p.GFLOPS, 100*r.GFLOPS/p.GFLOPS)})
	}
	return title, details
}

// appRun is implemented by every app's typed result.
type appRun interface {
	view() AppResult
	describe() (string, []Detail)
}

// view adapts a typed run's return values to an AppResult.
func view[R appRun](r R, err error) (AppResult, error) {
	if err != nil {
		return AppResult{}, err
	}
	return r.view(), nil
}

func matmulDesign(k int) fpga.Design { return fpga.NewMatMul(k) }
func fwDesign(k int) fpga.Design     { return fpga.NewFW(k) }
func mvDesign(k int) fpga.Design     { return fpga.NewMV(k) }

// The registry rows. Each Run* reads its own row's PE rule and
// geometry check, so a row cannot also name its Run* (an
// initialization cycle): registry adds the run functions.
var (
	luApp = App{Name: "lu", N: 30000, B: 3000, Design: matmulDesign, Unread: AxisDensity, Faults: true,
		Check: luGeometry("lu"), Price: priceOf(luHalf.model), smallN: 120, smallB: 20}
	fwApp = App{Name: "fw", N: 18432, B: 256, Design: fwDesign, BlockPEs: true, Unread: AxisBF | AxisDensity, Faults: true,
		Check: fwGeometry, Price: priceOf(fwModel), smallN: 96, smallB: 8,
		killErr: "fw cannot survive node kills: the contiguous block-column distribution has no surviving owner for a dead node's columns"}
	mmApp = App{Name: "mm", N: 6144, Design: matmulDesign, Unread: AxisB | AxisL | AxisDensity,
		Check: mmGeometry, Price: priceOf(mmModel), smallN: 96,
		killErr: "mm has no surviving owner for a dead node's result columns"}
	spmvApp = App{Name: "spmv", N: 2048, Design: mvDesign, Unread: AxisB | AxisL, Faults: true,
		Check: positiveN("spmv"), Price: priceOf(spmvModel), smallN: 512,
		killErr: "spmv runs on a single node and cannot survive node kills"}
	cholApp = App{Name: "chol", N: 30000, B: 3000, Design: matmulDesign, Unread: AxisDensity,
		Check: luGeometry("chol"), Price: priceOf(cholHalf.model), smallN: 120, smallB: 20}
	qrApp = App{Name: "qr", N: 30000, B: 3000, Design: matmulDesign, Unread: AxisL | AxisDensity,
		Check: luGeometry("qr"), Price: priceOf(qrHalf.model), smallN: 120, smallB: 20}
	cgApp = App{Name: "cg", N: 2048, Design: mvDesign, Unread: AxisB | AxisL, Check: positiveN("cg"), smallN: 128}
)

// registry lists every app in the order help texts name them.
var registry = []App{
	luApp.runs(func(s Spec) (AppResult, error) {
		return view(RunLU(LUConfig{Machine: s.Machine, N: s.N, B: s.B, PEs: s.PEs, BF: s.BF, L: s.L,
			Mode: s.Mode, Functional: s.Functional, Seed: s.Seed, Observer: s.Observer,
			Telemetry: s.Telemetry, Faults: s.Faults, Metrics: s.Metrics}))
	}),
	fwApp.runs(func(s Spec) (AppResult, error) {
		return view(RunFW(FWConfig{Machine: s.Machine, N: s.N, B: s.B, PEs: s.PEs, L1: s.L1,
			Mode: s.Mode, Functional: s.Functional, Seed: s.Seed, Observer: s.Observer,
			Telemetry: s.Telemetry, Faults: s.Faults, Metrics: s.Metrics}))
	}),
	mmApp.runs(func(s Spec) (AppResult, error) {
		return view(RunMM(MMConfig{Machine: s.Machine, N: s.N, PEs: s.PEs, BF: s.BF, Mode: s.Mode,
			Functional: s.Functional, Seed: s.Seed, Observer: s.Observer, Telemetry: s.Telemetry}))
	}),
	spmvApp.runs(func(s Spec) (AppResult, error) {
		run := RunSpMV
		if s.RHS > 1 {
			run = RunSpMM
		}
		return view(run(SpMVConfig{Machine: s.Machine, N: s.N, Density: s.Density, RHS: s.RHS, PEs: s.PEs,
			RowsFPGA: s.BF, Mode: s.Mode, Seed: s.Seed, Observer: s.Observer, Telemetry: s.Telemetry,
			Faults: s.Faults}))
	}),
	cholApp.runs(func(s Spec) (AppResult, error) {
		return view(RunCholesky(CholConfig{Machine: s.Machine, N: s.N, B: s.B, PEs: s.PEs, BF: s.BF, L: s.L,
			Mode: s.Mode, Functional: s.Functional, Seed: s.Seed, Observer: s.Observer, Telemetry: s.Telemetry}))
	}),
	qrApp.runs(func(s Spec) (AppResult, error) {
		return view(RunQR(QRConfig{Machine: s.Machine, N: s.N, B: s.B, PEs: s.PEs, BF: s.BF,
			Mode: s.Mode, Functional: s.Functional, Seed: s.Seed, Observer: s.Observer, Telemetry: s.Telemetry}))
	}),
	cgApp.runs(func(s Spec) (AppResult, error) {
		return view(RunCG(CGConfig{Machine: s.Machine, N: s.N, Density: s.Density, PEs: s.PEs,
			RowsFPGA: s.BF, Mode: s.Mode, Seed: s.Seed, Observer: s.Observer, Telemetry: s.Telemetry}))
	}),
}

// runs returns the row with its run function.
func (a App) runs(run func(Spec) (AppResult, error)) App {
	a.run = run
	return a
}

// positiveN is the geometry check of the single-node operator apps.
func positiveN(name string) func(nodes, n, b, k int) error {
	return func(_, n, _, _ int) error {
		if n <= 0 {
			return fmt.Errorf("%s needs n > 0", name)
		}
		return nil
	}
}

// Apps returns the registered apps in registry order.
func Apps() []App { return slices.Clone(registry) }

// LookupApp returns the registered app with the given name.
func LookupApp(name string) (App, error) {
	for _, a := range registry {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("unknown app %q (want %s)", name, AppNames("or", false))
}

// AppNames lists the registered names as an English series joined by
// conj ("lu, fw or mm"); faultsOnly keeps the apps that accept fault
// injection.
func AppNames(conj string, faultsOnly bool) string {
	var names []string
	for _, a := range registry {
		if a.Faults || !faultsOnly {
			names = append(names, a.Name)
		}
	}
	last := len(names) - 1
	return strings.Join(names[:last], ", ") + " " + conj + " " + names[last]
}

// Run simulates the app with the spec's configuration.
func (a App) Run(s Spec) (AppResult, error) {
	if s.Faults != nil && !a.Faults {
		return AppResult{}, fmt.Errorf("core: %s does not support fault injection", a.Name)
	}
	return a.run(s)
}

// Small returns a quick, feasible hybrid run of the app on one XD1
// chassis with 4 PEs and solved partitions, for smoke tests.
func (a App) Small() Spec {
	return Spec{Machine: machine.XD1(), N: a.smallN, B: a.smallB, PEs: 4, BF: -1, L: -1, L1: -1, Seed: 1}
}

func (r *LUResult) view() AppResult {
	bind, _ := r.Model.StripeBinding(r.BF)
	return AppResult{&r.Result, Split{BF: r.BF, BP: r.BP, L: r.L}, r.Prediction, "opmm", bind, r}
}

func (r *LUResult) describe() (string, []Detail) {
	return "block LU decomposition", []Detail{
		{"partition", fmt.Sprintf("bf=%d bp=%d (k=%d PEs), pipeline l=%d", r.BF, r.BP, r.K, r.L)}}
}

func (r *FWResult) view() AppResult {
	bind, _ := r.Model.PhaseBinding(r.L1, r.L2)
	return AppResult{&r.Result, Split{L1: r.L1, L2: r.L2}, r.Prediction, "op", bind, r}
}

func (r *FWResult) describe() (string, []Detail) {
	return "blocked Floyd-Warshall (all-pairs shortest paths)", []Detail{
		{"partition", fmt.Sprintf("l1=%d processor ops, l2=%d FPGA ops per phase (k=%d PEs)", r.L1, r.L2, r.K)}}
}

func (r *MMResult) view() AppResult {
	bind, _ := r.Model.StripeBinding(r.BF)
	return AppResult{&r.Result, Split{BF: r.BF, BP: r.BP}, r.Prediction, "stripe", bind, r}
}

func (r *MMResult) describe() (string, []Detail) {
	return "hybrid matrix multiplication (Eq. 1)", []Detail{
		{"partition", fmt.Sprintf("bf=%d bp=%d result rows per stripe (k=%d PEs)", r.BF, r.BP, r.K)}}
}

func (r *SpMVResult) view() AppResult {
	bind, _ := r.Model.StripeBinding(r.RowsFPGA)
	phase := "stream"
	if r.Resident {
		phase = "apply"
	}
	return AppResult{&r.Result, Split{BF: r.RowsFPGA, BP: r.RowsCPU}, r.Prediction, phase, bind, r}
}

func (r *SpMVResult) describe() (string, []Detail) {
	title := "sparse matrix-vector product (Eq. 1 row split)"
	if r.Applies > 1 {
		title = "sparse matrix-multi-vector product (SpMM, Eq. 1 per apply)"
	}
	arrangement := "streamed per apply"
	if r.Resident {
		arrangement = fmt.Sprintf("SRAM-resident, load %.3gs", r.LoadSeconds)
	}
	return title, []Detail{
		{"operator", fmt.Sprintf("n=%d nnz=%d (%.4g words/row CSR), %s", r.N, r.NNZ, float64(r.Words)/float64(r.N), arrangement)},
		{"row split", fmt.Sprintf("%d rows to FPGA, %d to processor (k=%d MACs), %d applies", r.RowsFPGA, r.RowsCPU, r.K, r.Applies)}}
}

func (r *CholResult) view() AppResult {
	bind, _ := r.Model.StripeBinding(r.BF)
	return AppResult{&r.Result, Split{BF: r.BF, BP: r.BP, L: r.L}, r.Prediction, "opmm", bind, r}
}

func (r *CholResult) describe() (string, []Detail) {
	return "block Cholesky factorization (extension)", []Detail{
		{"partition", fmt.Sprintf("bf=%d bp=%d (k=%d PEs), pipeline l=%d", r.BF, r.BP, r.K, r.L)}}
}

func (r *QRResult) view() AppResult {
	bind, _ := r.Model.StripeBinding(r.BF)
	return AppResult{&r.Result, Split{BF: r.BF, BP: r.BP}, r.Prediction, "update", bind, r}
}

func (r *QRResult) describe() (string, []Detail) {
	return "block Householder QR factorization (extension)", []Detail{
		{"partition", fmt.Sprintf("bf=%d bp=%d (k=%d PEs)", r.BF, r.BP, r.K)}}
}

func (r *CGRunResult) view() AppResult {
	return AppResult{Result: &r.Result, Split: Split{BF: r.RowsFPGA, BP: r.RowsCPU}, detail: r}
}

func (r *CGRunResult) describe() (string, []Detail) {
	return "conjugate gradient (extension, after [9])", []Detail{
		{"row split", fmt.Sprintf("%d rows to FPGA (SRAM-resident), %d to processor (k=%d MACs)", r.RowsFPGA, r.RowsCPU, r.K)},
		{"solve", fmt.Sprintf("%d iterations, converged=%v, SRAM load %.4fs", r.Iterations, r.Converged, r.LoadSeconds)}}
}

// LUModel builds the LU-family (lu, chol, qr) model parameters for a
// k-PE matmul array on m's nodes. The caller supplies the design clock
// ff and the effective DRAM bandwidth bd: a simulation reads both off
// its installed design, a sweep off its memoized placement, and the two
// must not be re-derived from each other here (DESIGN.md §15).
func LUModel(m machine.Config, proc *cpu.Processor, b, k int, ff, bd float64) model.LUParams {
	return model.LUParams{
		P: m.Nodes, B: b, K: k,
		Ff:         ff,
		StripeRate: proc.Rate(cpu.DGEMMStripe),
		LURate:     proc.Rate(cpu.DGETRF),
		TrsmRate:   proc.Rate(cpu.DTRSM),
		Bd:         bd,
		Bn:         m.Fabric.LinkBandwidth,
		Bw:         machine.WordBytes,
		SRAMBytes:  designSRAM(m),
	}
}

// FWModel builds the FW model parameters for a k-PE FW array, with ff
// and bd supplied as for LUModel.
func FWModel(m machine.Config, proc *cpu.Processor, b, k int, ff, bd float64) model.FWParams {
	return model.FWParams{
		P: m.Nodes, B: b, K: k,
		Ff:        ff,
		FWRate:    proc.Rate(cpu.FWKernel),
		Bd:        bd,
		Bn:        m.Fabric.LinkBandwidth,
		Bw:        machine.WordBytes,
		SRAMBytes: designSRAM(m),
	}
}

// designSRAM is the on-board memory budget the dense designs allocate:
// half of a node's QDR-II capacity.
func designSRAM(m machine.Config) int64 {
	return int64(m.SRAMBanks) * m.SRAMBankBytes / 2
}
