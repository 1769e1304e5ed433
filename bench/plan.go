package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"sort"

	"codesign/internal/serve"
	"codesign/internal/sweep"
)

// The benchmark's inputs are drawn from fixed universes by the seed.
// Each universe is split into strata of similar cost and feasibility,
// and every seed takes the same number of values from each stratum, so
// seeds change which points run but not how much work a pass is.

var (
	apps     = []string{"lu", "fw", "mm", "spmv"}
	machines = []string{"xd1", "xt3", "src6", "rasc"}
	modes    = []string{"hybrid", "processor-only", "fpga-only"}
)

// plan is everything one seed generates. The program under test sees
// only these inputs; the seed itself never reaches it.
type plan struct {
	Seed int64 `json:"seed"`
	// SimGrids is one sweep-sim pass: a mixed design space written as
	// one cross-product grid per application and size family.
	SimGrids []sweep.Grid `json:"sim_grids"`
	// ModelGrids is one sweep-model pass.
	ModelGrids []sweep.Grid `json:"model_grids"`
	// HotKeys is serve-hot's working set and HotStream the order the
	// clients request it in (indices into HotKeys).
	HotKeys   []serve.SolveRequest `json:"hot_keys"`
	HotStream []int                `json:"hot_stream"`
	// Mixed is serve-mixed's open-loop schedule, one operation per tick.
	Mixed []mixedOp `json:"mixed"`
	// MixedPrefill is the model working set loaded into serve-mixed's
	// cache during set-up.
	MixedPrefill []serve.SolveRequest `json:"mixed_prefill"`
	// JobGrid is the sim sweep serve-mixed keeps resubmitting.
	JobGrid sweep.Grid `json:"job_grid"`
}

// mixedOp is one scheduled serve-mixed request: a solve or a design.
type mixedOp struct {
	Solve  *serve.SolveRequest  `json:"solve,omitempty"`
	Design *serve.DesignRequest `json:"design,omitempty"`
}

// Plan sizes. The serving numbers follow from the mixed workload's
// purpose: a model working set twice the reduced cache bound, so the
// cache keeps evicting, and a sim universe large enough that over 40%
// of the sim solves still compute at the end of a 20 s window.
const (
	hotWorkingSet   = 512
	hotStreamLen    = 8192
	hotDup          = 0.9
	mixedRate       = 200 // requests per second
	mixedCacheBound = 1024
	mixedModelSet   = 2 * mixedCacheBound
	mixedWarmup     = 1.0 // seconds of schedule before the window
)

func iptr(v int) *int { return &v }

// pick returns k distinct values of xs, seeded, in their order in xs
// (enumeration order changes what a sweep's Pareto pass costs).
func pick[T any](r *rand.Rand, xs []T, k int) []T {
	idx := r.Perm(len(xs))[:k]
	sort.Ints(idx)
	out := make([]T, k)
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// shuffled returns a seeded permutation of xs.
func shuffled[T any](r *rand.Rand, xs []T) []T {
	out := make([]T, len(xs))
	for i, j := range r.Perm(len(xs)) {
		out[i] = xs[j]
	}
	return out
}

// concat joins slices.
func concat[T any](parts ...[]T) []T {
	var out []T
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// newPlan builds the seed's inputs for a window of the given length.
// Each part draws from its own stream, so changing one part's size
// leaves the others unchanged.
func newPlan(seed int64, seconds float64) *plan {
	stream := func(part int64) *rand.Rand { return rand.New(rand.NewSource(seed*7919 + part)) }
	p := &plan{Seed: seed}
	p.SimGrids = simGrids(stream(1))
	p.ModelGrids = modelGrids(stream(2))
	p.HotKeys, p.HotStream = hotPlan(stream(3))
	p.MixedPrefill, p.Mixed, p.JobGrid = mixedPlan(stream(4), int((mixedWarmup+seconds)*mixedRate)+1)
	return p
}

// digest is the SHA-256 of the plan's JSON encoding.
func (p *plan) digest() string {
	b, err := json.Marshal(p)
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// simGrids is the sweep-sim pass: paper-scale LU, reduced LU, FW, MM
// and SpMV at several densities plus one dense operator, on every
// machine preset, as 22 grids of 1 to 12 points. Sizes are fixed
// because they set the cost. The seed picks the partition axes (BF, L)
// independently for every machine, so the pass's total cost averages
// over many picks and barely moves between seeds. The 2400-row reduced
// LU points cost ten times the others, so they keep the solved
// partition on every seed.
func simGrids(r *rand.Rand) []sweep.Grid {
	g := func(app string, ms []string, n, b []int, dens []float64, bf, l []int) sweep.Grid {
		return sweep.Grid{Apps: []string{app}, Machines: ms, N: n, B: b, Density: dens, BF: bf, L: l, Method: sweep.MethodSim}
	}
	luL := []int{-1, 1, 2, 3}
	var grids []sweep.Grid
	for _, m := range machines {
		one := []string{m}
		grids = append(grids,
			g("lu", one, []int{30000}, []int{3000}, nil, pick(r, []int{-1, 1500, 1800, 2100, 2400}, 2), pick(r, luL, 2)),
			g("lu", one, []int{1200}, []int{120, 240}, nil, pick(r, []int{-1, 60, 72, 84, 96}, 2), pick(r, luL, 2)),
			g("fw", one, []int{3072, 6144}, []int{256}, nil, nil, pick(r, []int{-1, 0, 1, 2}, 2)),
			g("mm", one, []int{480, 960, 1920}, nil, nil, pick(r, []int{-1, 96, 192, 288}, 2), nil),
			g("spmv", one, []int{512, 2048}, nil, []float64{0.01, 0.03, 0.1}, pick(r, []int{-1, 128, 256, 384}, 2), nil))
	}
	return append(grids,
		g("lu", machines, []int{2400}, []int{120, 240}, nil, nil, nil),
		g("spmv", machines[:1], []int{2048}, nil, []float64{0}, nil, nil))
}

// modelGrids is the sweep-model pass: 20,000 points at the paper's
// problem sizes, as one grid per app of 4 machines x 10 PE counts x 5
// BF values x 5 L values x 5 densities (four cmd/sweep runs, which
// gives the latency percentiles four samples a pass). The seed draws
// the SpMV densities. The other axes are fixed, values and order both:
// which PE, BF and L values are swept sets the feasible share and the
// Pareto frontier's size, and the Pareto pass stops scanning at a
// point's first dominator, so either would move a pass's cost between
// seeds by a third or more.
func modelGrids(r *rand.Rand) []sweep.Grid {
	dens := concat([]float64{0}, pick(r, []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5}, 4))
	var grids []sweep.Grid
	for _, app := range apps {
		grids = append(grids, sweep.Grid{
			Apps:     []string{app},
			Machines: machines,
			PEs:      []int{0, 1, 2, 4, 6, 8, 12, 16, 24, 32},
			BF:       []int{-1, 512, 1536, 2400, 4000},
			L:        []int{-1, 0, 2, 6, 12},
			Density:  dens,
			Method:   sweep.MethodModel,
		})
	}
	return grids
}

// modelUniverse is the pool of model-method solve requests the serving
// workloads draw from: every app at its paper size, on every machine,
// node count, mode and PE count, with a few partition choices each.
func modelUniverse() []serve.SolveRequest {
	var out []serve.SolveRequest
	for _, m := range machines {
		for _, nodes := range []int{0, 2, 3} {
			for _, mode := range modes {
				for _, pes := range []int{0, 2, 4, 8} {
					q := serve.SolveRequest{Machine: m, Nodes: nodes, Mode: mode, PEs: pes, Method: sweep.MethodModel}
					for _, bf := range []int{-1, 600, 1280, 2000} {
						for _, l := range []int{-1, 1, 2, 3} {
							q.App, q.BF, q.L = "lu", iptr(bf), iptr(l)
							out = append(out, q)
						}
					}
					for _, l := range []int{-1, 0, 1, 2, 4} {
						q.App, q.BF, q.L = "fw", nil, iptr(l)
						out = append(out, q)
					}
					for _, bf := range []int{-1, 0, 1024, 3072} {
						q.App, q.BF, q.L = "mm", iptr(bf), nil
						out = append(out, q)
					}
					for _, d := range []float64{0, 0.01, 0.05, 0.1} {
						for _, bf := range []int{-1, 512, 1024} {
							q.App, q.Density, q.BF, q.L = "spmv", d, iptr(bf), nil
							out = append(out, q)
						}
					}
					q.Density = 0
				}
			}
		}
	}
	return out
}

// simUniverse is the pool of reduced-size sim-method solves (720
// keys), each a few milliseconds of simulation.
func simUniverse() []serve.SolveRequest {
	var out []serve.SolveRequest
	for _, m := range machines {
		for _, mode := range modes {
			q := serve.SolveRequest{Machine: m, Mode: mode, Method: sweep.MethodSim}
			for _, b := range []int{120, 240} {
				for _, bf := range []int{-1, 60, 96} {
					for _, l := range []int{-1, 1, 2, 3} {
						q.App, q.N, q.B, q.BF, q.L = "lu", 1200, b, iptr(bf), iptr(l)
						out = append(out, q)
					}
				}
			}
			for _, l := range []int{-1, 0, 1, 2} {
				q.App, q.N, q.B, q.BF, q.L = "fw", 3072, 256, nil, iptr(l)
				out = append(out, q)
			}
			for _, n := range []int{480, 960} {
				for _, bf := range []int{-1, 96, 192, 288} {
					q.App, q.N, q.B, q.BF, q.L = "mm", n, 0, iptr(bf), nil
					out = append(out, q)
				}
			}
			for _, n := range []int{512, 1024} {
				for _, d := range []float64{0.01, 0.02, 0.05, 0.1} {
					for _, bf := range []int{-1, 128, 256} {
						q.App, q.N, q.B, q.Density, q.BF, q.L = "spmv", n, 0, d, iptr(bf), nil
						out = append(out, q)
					}
				}
			}
			q.Density = 0
		}
	}
	return out
}

// hotPlan picks serve-hot's working set and a duplicate-heavy request
// order over it: each request repeats an earlier one with probability
// hotDup (uniformly over history), else draws a fresh working-set key.
func hotPlan(r *rand.Rand) ([]serve.SolveRequest, []int) {
	keys := pick(r, modelUniverse(), hotWorkingSet)
	stream := make([]int, hotStreamLen)
	for i := range stream {
		if i > 0 && r.Float64() < hotDup {
			stream[i] = stream[r.Intn(i)]
		} else {
			stream[i] = r.Intn(len(keys))
		}
	}
	return keys, stream
}

// mixedPlan builds serve-mixed's cache prefill, its n-tick schedule
// (80% model solves over a working set twice the cache bound, 15% sim
// solves, 5% model design grids of 100-500 points) and its sweep job.
func mixedPlan(r *rand.Rand, n int) ([]serve.SolveRequest, []mixedOp, sweep.Grid) {
	models := pick(r, modelUniverse(), mixedModelSet)
	sims := shuffled(r, simUniverse())
	ops := make([]mixedOp, n)
	for i := range ops {
		switch x := r.Float64(); {
		case x < 0.80:
			ops[i].Solve = &models[r.Intn(len(models))]
		case x < 0.95:
			ops[i].Solve = &sims[r.Intn(len(sims))]
		default:
			ops[i].Design = &serve.DesignRequest{Top: 5, Grid: sweep.Grid{
				Apps:     pick(r, apps, 1),
				Machines: machines,
				PEs:      pick(r, []int{0, 2, 4, 6, 8, 10, 12, 16}, 5),
				BF:       pick(r, []int{-1, 0, 256, 512, 1024, 1536, 2000, 3000}, 5),
				L:        pick(r, []int{-1, 0, 1, 2, 3, 4}, 1+r.Intn(5)),
			}}
		}
	}
	job := sweep.Grid{Apps: []string{"lu"}, Machines: shuffled(r, machines), N: []int{1200, 2400}, B: []int{120, 240},
		BF: []int{-1, pick(r, []int{60, 72, 84, 96}, 1)[0]}, L: []int{-1, pick(r, []int{1, 2, 3}, 1)[0]},
		Method: sweep.MethodSim}
	return models[:mixedCacheBound], ops, job
}
