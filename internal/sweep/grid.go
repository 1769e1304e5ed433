package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"codesign/internal/machine"
)

// Evaluation methods.
const (
	// MethodModel evaluates each point with the closed-form design
	// model only (Equations 1-6 plus the Section 4.5 predictor):
	// microseconds per point, suitable for grids of thousands.
	MethodModel = "model"
	// MethodSim evaluates each point with a full discrete-event
	// simulation (internal/core), reporting measured throughput and
	// the telemetry-derived bottleneck. Points should use reduced
	// problem sizes; paper-scale LU takes seconds per point.
	MethodSim = "sim"
)

// Modes a grid can sweep.
var knownModes = []string{"hybrid", "processor-only", "fpga-only"}

// Grid is a declarative design-space description: the cross product of
// every axis is the point set. Empty axes take defaults (one XD1
// chassis, hybrid LU at the paper's sizes, solved partitions), so the
// zero Grid is the paper's headline configuration. A zero in N, B or
// PEs means "the app's default" (core.App.N and B: LU n=30000/b=3000,
// FW n=18432/b=256, MM n=6144, SpMV n=2048; largest PE array that
// fits); -1 in BF or L means "solve the model equation" (Eq. 4 / Eq. 5
// for the LU family, Eq. 6 for FW, Eq. 1 for MM and SpMV).
type Grid struct {
	// Apps selects applications: the registered apps with a model
	// half, "lu", "fw", "mm", "spmv", "chol" and "qr" (see Apps).
	Apps []string `json:"apps,omitempty"`
	// Machines selects machine presets by name: "xd1", "xt3", "src6",
	// "rasc".
	Machines []string `json:"machines,omitempty"`
	// Nodes overrides the preset node count p (0 = preset default).
	Nodes []int `json:"nodes,omitempty"`
	// N is the problem size axis (0 = the app's paper size).
	N []int `json:"n,omitempty"`
	// Density is the operator nonzero-density axis (0 = dense operator,
	// the DGEMV regime). Read by spmv only; lu, fw and mm ignore it.
	Density []float64 `json:"density,omitempty"`
	// B is the block size axis (0 = the app's paper block size). Read
	// by lu, fw, chol and qr; mm and spmv, which have no block
	// structure, ignore it.
	B []int `json:"b,omitempty"`
	// PEs is the FPGA PE-array size axis (0 = largest that fits the
	// device, the paper's choice).
	PEs []int `json:"pes,omitempty"`
	// BF is the FPGA row-share axis: the stripe rows of lu, chol, qr
	// and mm, spmv's operator rows (-1 = solve Equation 4 / Equation 1
	// / the SpMV split). fw ignores it.
	BF []int `json:"bf,omitempty"`
	// L is the pipeline-depth axis: the Equation 5 panel pipeline
	// depth of lu and chol, or fw's per-phase processor share l1 (-1 =
	// solve). qr, mm and spmv ignore it.
	L []int `json:"l,omitempty"`
	// Modes selects design variants: "hybrid", "processor-only",
	// "fpga-only".
	Modes []string `json:"modes,omitempty"`
	// Method selects the evaluator: MethodModel (default) or MethodSim.
	Method string `json:"method,omitempty"`
}

// Point is one fully-specified coordinate of the design space, as
// enumerated from a Grid. Zero/-1 sentinel values are preserved here
// and resolved during evaluation (the Outcome records the resolved
// partition).
type Point struct {
	// Index is the point's position in the deterministic enumeration
	// order; results are always reported in Index order.
	Index int `json:"index"`
	// App is the application (one of Apps).
	App string `json:"app"`
	// Machine is the machine preset name.
	Machine string `json:"machine"`
	// Mode is the design variant.
	Mode string `json:"mode"`
	// Nodes is the node-count override (0 = preset default).
	Nodes int `json:"nodes"`
	// N is the problem size (0 = app default).
	N int `json:"n"`
	// Density is the spmv operator density (0 = dense operator).
	Density float64 `json:"density"`
	// B is the block size (0 = app default).
	B int `json:"b"`
	// PEs is the PE-array size (0 = largest that fits).
	PEs int `json:"pes"`
	// BF is the FPGA row share (-1 = solve); fw ignores it.
	BF int `json:"bf"`
	// L is the lu/chol pipeline depth or fw's l1 (-1 = solve).
	L int `json:"l"`
}

// MaxPoints caps a grid's cross-product size; Validate rejects larger
// grids so a typo'd axis cannot enqueue unbounded work.
const MaxPoints = 250000

// normalized returns a copy with every empty axis replaced by its
// default, or an error for unknown names.
func (g Grid) normalized() (Grid, error) {
	def := func(xs []int, v int) []int {
		if len(xs) == 0 {
			return []int{v}
		}
		return xs
	}
	if len(g.Apps) == 0 {
		g.Apps = []string{"lu"}
	}
	if len(g.Machines) == 0 {
		g.Machines = []string{"xd1"}
	}
	if len(g.Modes) == 0 {
		g.Modes = []string{"hybrid"}
	}
	g.Nodes = def(g.Nodes, 0)
	g.N = def(g.N, 0)
	if len(g.Density) == 0 {
		g.Density = []float64{0}
	}
	for _, d := range g.Density {
		if !(d >= 0 && d <= 1) { // NaN fails both comparisons
			return g, fmt.Errorf("sweep: density %g out of [0,1]", d)
		}
	}
	g.B = def(g.B, 0)
	g.PEs = def(g.PEs, 0)
	g.BF = def(g.BF, -1)
	g.L = def(g.L, -1)
	if g.Method == "" {
		g.Method = MethodModel
	}
	if g.Method != MethodModel && g.Method != MethodSim {
		return g, fmt.Errorf("sweep: unknown method %q (want %q or %q)", g.Method, MethodModel, MethodSim)
	}
	for _, a := range g.Apps {
		if _, err := lookup(a); err != nil {
			return g, fmt.Errorf("sweep: %w", err)
		}
	}
	for _, m := range g.Machines {
		if _, err := machine.Preset(m); err != nil {
			return g, fmt.Errorf("sweep: %w", err)
		}
	}
	for _, m := range g.Modes {
		if !contains(knownModes, m) {
			return g, fmt.Errorf("sweep: unknown mode %q (want one of %s)", m, strings.Join(knownModes, ", "))
		}
	}
	if g.NumPoints() > MaxPoints {
		return g, fmt.Errorf("sweep: grid has more than %d points", MaxPoints)
	}
	return g, nil
}

// Validate checks axis values without enumerating the space.
func (g Grid) Validate() error {
	_, err := g.normalized()
	return err
}

// NumPoints returns the size of the cross product (after defaulting
// empty axes to one value each), saturated at MaxPoints+1: any larger
// grid reports MaxPoints+1, so the product cannot overflow and every
// caller's "too many points" check sees it.
func (g Grid) NumPoints() int {
	n := 1
	mul := func(k int) {
		if k > 0 {
			n = min(n*k, MaxPoints+1)
		}
	}
	for _, axis := range [][]int{g.Nodes, g.N, g.B, g.PEs, g.BF, g.L} {
		mul(len(axis))
	}
	mul(len(g.Density))
	for _, axis := range [][]string{g.Apps, g.Machines, g.Modes} {
		mul(len(axis))
	}
	return n
}

// Points enumerates the cross product in deterministic order (apps
// outermost, then machines, modes, nodes, n, density, b, pes, bf, l
// innermost). The grid must already be normalized; Run does this for
// callers.
func (g Grid) Points() []Point {
	norm, err := g.normalized()
	if err != nil {
		return nil
	}
	g = norm
	pts := make([]Point, 0, g.NumPoints())
	for _, app := range g.Apps {
		for _, mach := range g.Machines {
			for _, mode := range g.Modes {
				for _, nodes := range g.Nodes {
					for _, n := range g.N {
						for _, d := range g.Density {
							for _, b := range g.B {
								for _, pes := range g.PEs {
									for _, bf := range g.BF {
										for _, l := range g.L {
											pts = append(pts, Point{
												Index: len(pts),
												App:   app, Machine: mach, Mode: mode,
												Nodes: nodes, N: n, Density: d, B: b, PEs: pes, BF: bf, L: l,
											})
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return pts
}

// ReadGrid parses a JSON grid description (the declarative input of
// cmd/sweep -grid). Unknown fields are rejected so axis typos fail
// loudly instead of silently sweeping defaults.
func ReadGrid(r io.Reader) (Grid, error) {
	var g Grid
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return g, fmt.Errorf("sweep: grid: %w", err)
	}
	return g, g.Validate()
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
