package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"
)

// Options tunes a sweep run. The zero value is a sensible default:
// one worker per CPU and no callbacks — Run then reports nothing until
// it returns the completed Result.
type Options struct {
	// Workers bounds the evaluation pool; <= 0 uses
	// runtime.GOMAXPROCS(0). Worker count never changes results, only
	// wall-clock time.
	Workers int
	// OnResult, when non-nil, is invoked once per evaluated point as
	// it completes. Calls are serialized but arrive in completion
	// order, not Index order; the final Result is always Index-ordered
	// regardless.
	OnResult func(Point, Outcome)
	// OnProgress, when non-nil, is invoked once per completed point
	// with a live snapshot of the whole run. Calls are serialized (and
	// serialized against OnResult, which for the same point always
	// precedes them) and arrive in completion order; unless the context
	// cancels the sweep early, the final call has Done == Total and
	// ETA == 0. The callback runs on a worker goroutine, so a slow
	// callback slows the sweep.
	OnProgress func(Progress)
	// Evaluator, when non-nil, supplies a shared memoization engine so
	// repeated sweeps (and the serve layer's point queries) reuse
	// place-and-route and partition solves across runs. Nil gives the
	// run a fresh unbounded evaluator, the classic per-sweep memo. The
	// run's Result.Stats always reports only this run's traffic, but
	// when concurrent runs share one evaluator a "solve" may be
	// attributed to whichever run reached the key first.
	Evaluator *Evaluator

	// phase labels Progress snapshots ("screen", "refine"); only
	// RunScreened sets it.
	phase string
}

// safeEvaluate runs one point's evaluation, converting a panic from a
// degenerate coordinate (reached deep in model or dist arithmetic the
// evaluator's own feasibility checks did not anticipate) into an
// infeasible Outcome. One bad point must cost one grid cell, never the
// whole sweep: a panic in a worker goroutine would kill the process.
func safeEvaluate(eval func() Outcome) (out Outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = Outcome{Err: fmt.Sprintf("panic: %v", r)}
		}
	}()
	return eval()
}

// Result is a completed sweep: the normalized grid, its points in
// enumeration order, one Outcome per point, the Pareto-optimal subset,
// per-axis sensitivity tables and evaluator statistics. Identical
// grids produce byte-identical serialized Results regardless of
// worker count.
type Result struct {
	// Grid is the normalized grid that was swept.
	Grid Grid `json:"grid"`
	// Points and Outcomes are parallel slices in Index order.
	Points []Point `json:"-"`
	// Outcomes holds one evaluation per point.
	Outcomes []Outcome `json:"-"`
	// Records is the serialized view of Points/Outcomes.
	Records []Record `json:"results"`
	// ParetoIndices lists the indices of the non-dominated points
	// (maximize GFLOPS, minimize Slices and BdGBps), in Index order.
	ParetoIndices []int `json:"pareto"`
	// Sensitivity holds one table per grid axis with at least two
	// distinct values.
	Sensitivity []SensitivityTable `json:"sensitivity"`
	// Stats reports evaluation and memoization counts. For a screened
	// run it covers both phases (Points is the refined subset size;
	// the full screened grid size is Screen.Points).
	Stats Stats `json:"stats"`
	// Screen summarizes the screening pass of a RunScreened result
	// (nil for plain Run results).
	Screen *ScreenSummary `json:"screen,omitempty"`
}

// Record pairs a point with its outcome for serialization.
type Record struct {
	// Point is the design-space coordinate.
	Point Point `json:"point"`
	// Outcome is its evaluation.
	Outcome Outcome `json:"outcome"`
}

// Run evaluates every point of the grid on a bounded worker pool and
// reduces the outcomes to a Pareto frontier and sensitivity tables.
// The context cancels the sweep between points: Run then returns
// ctx.Err() after all in-flight evaluations drain (no goroutines are
// leaked). Results are deterministic: scheduling affects only the
// order OnResult observes, never the returned Result.
func Run(ctx context.Context, g Grid, opts Options) (*Result, error) {
	norm, err := g.normalized()
	if err != nil {
		return nil, err
	}
	points := norm.Points()
	if len(points) == 0 {
		return nil, fmt.Errorf("sweep: empty grid")
	}
	ev := newEvaluator(0)
	if opts.Evaluator != nil {
		ev = opts.Evaluator.ev
	}
	before := ev.statsDelta(Stats{})
	outcomes, err := evaluatePoints(ctx, norm.Method, points, opts, ev, before)
	if err != nil {
		return nil, err
	}
	return reduce(norm, points, outcomes, ev.statsDelta(before)), nil
}

// evaluatePoints runs the bounded worker pool over an arbitrary point
// subset under the given method. It is the engine under both Run (the
// full grid) and RunScreened (the model screen, then the refined
// candidate subset). before is the evaluator's stats snapshot at the
// run's start, so live Progress reports the run's own memo traffic
// even on a shared evaluator.
//
// Only one representative per effective coordinate is evaluated (see
// effective): its Outcome is copied into every point that differs from
// it only in axes the app never reads. Such a duplicate completes when
// its representative does, with zero evaluation time, and is charged
// the representative's memo lookups but none of its solves, so Stats
// counts per-point demand exactly as if every point had been evaluated.
func evaluatePoints(ctx context.Context, method string, points []Point, opts Options, ev *evaluator, before Stats) ([]Outcome, error) {
	reps, next := groupEffective(points)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reps) {
		workers = len(reps)
	}
	outcomes := make([]Outcome, len(points))
	jobs := make(chan int, len(reps))
	for _, i := range reps {
		jobs <- i
	}
	close(jobs)

	var (
		wg       sync.WaitGroup
		notifyMu sync.Mutex
		tracker  *progressTracker
	)
	if opts.OnProgress != nil {
		tracker = newProgressTracker(len(points), workers)
		tracker.phase = opts.phase
	}
	notify := func(i, worker int, elapsed time.Duration) {
		if opts.OnResult == nil && tracker == nil {
			return
		}
		notifyMu.Lock()
		if opts.OnResult != nil {
			opts.OnResult(points[i], outcomes[i])
		}
		if tracker != nil {
			opts.OnProgress(tracker.completed(&outcomes[i], ev.statsDelta(before), worker, elapsed))
		}
		notifyMu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					return
				}
				start := time.Now()
				var tally Stats
				outcomes[i] = safeEvaluate(func() Outcome {
					return ev.evaluate(points[i], method, &tally)
				})
				notify(i, worker, time.Since(start))
				for d := next[i]; d != 0; d = next[d] {
					outcomes[d] = outcomes[i]
					ev.charge(tally.lookups())
					notify(d, worker, 0)
				}
			}
		}(w)
	}
	wg.Wait()
	return outcomes, ctx.Err()
}

// groupEffective partitions points by effective coordinate. reps lists
// the first point of each group, in order; next chains each group from
// its representative through its duplicates in order, with 0 ending a
// chain (points[0] is always a representative, so it is never a
// successor).
//
// Grid enumeration keeps app, machine and mode outermost, so the
// string-keyed level changes rarely and the per-point lookup hashes
// only the numeric axes. Density is keyed by its bits: -0 and 0 then
// form two groups, which costs one extra evaluation and never merges
// points that differ.
func groupEffective(points []Point) (reps, next []int) {
	type names struct{ app, machine, mode string }
	type coord struct {
		nodes, n, b, pes, bf, l int
		density                 uint64
	}
	next = make([]int, len(points))
	var tails []int // tails[g] is the last point of group g so far
	byNames := make(map[names]map[coord]int)
	var cur map[coord]int
	var curNames names
	for i := range points {
		pt := &points[i]
		if nm := (names{pt.App, pt.Machine, pt.Mode}); cur == nil || nm != curNames {
			if cur = byNames[nm]; cur == nil {
				cur = make(map[coord]int)
				byNames[nm] = cur
			}
			curNames = nm
		}
		e := effective(*pt)
		c := coord{e.Nodes, e.N, e.B, e.PEs, e.BF, e.L, math.Float64bits(e.Density)}
		if g, ok := cur[c]; ok {
			next[tails[g]] = i
			tails[g] = i
			continue
		}
		cur[c] = len(reps)
		reps = append(reps, i)
		tails = append(tails, i)
	}
	return reps, next
}

// reduce folds evaluated outcomes into a Result: error counts, the
// Pareto frontier, sensitivity tables and serialized records. points
// and outcomes are parallel; ParetoIndices index positions in them.
func reduce(norm Grid, points []Point, outcomes []Outcome, stats Stats) *Result {
	stats.Points = len(points)
	for i := range outcomes {
		if !outcomes[i].OK {
			stats.Errors++
		}
	}
	pareto := markPareto(outcomes)
	res := &Result{
		Grid:          norm,
		Points:        points,
		Outcomes:      outcomes,
		ParetoIndices: pareto,
		Sensitivity:   sensitivity(points, outcomes),
		Stats:         stats,
	}
	res.Records = make([]Record, len(points))
	for i := range points {
		res.Records[i] = Record{Point: points[i], Outcome: outcomes[i]}
	}
	return res
}

// Best returns the feasible point with the highest GFLOPS (ties break
// toward the lowest Index, so the result is deterministic), or -1 if
// every point was infeasible.
func (r *Result) Best() int {
	best := -1
	for i := range r.Outcomes {
		if !r.Outcomes[i].OK {
			continue
		}
		if best < 0 || r.Outcomes[i].GFLOPS > r.Outcomes[best].GFLOPS {
			best = i
		}
	}
	return best
}
