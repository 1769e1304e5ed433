package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"codesign/internal/sweep"
)

// sweepWorkers is the sweep pool size: one worker per core of the
// two-core machine the bounds were set on.
const sweepWorkers = 2

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// sweepPass is one closed-loop pass: every grid through sweep.Run, each
// result encoded with WriteJSON as cmd/sweep -out does.
type sweepPass struct {
	seconds float64
	// calls holds each grid's Run plus WriteJSON time, in milliseconds:
	// the wait one cmd/sweep invocation would have.
	calls   []float64
	points  int
	digest  string
	results []*sweep.Result
	// panics counts points whose evaluation panicked (Outcome.Err
	// "panic: ..."); infeasible points are answers, not failures.
	panics int
}

// runPass runs grids once. The encoded bytes go to buf (reset first)
// and are hashed after the clock stops.
func runPass(grids []sweep.Grid, workers int, buf *bytes.Buffer) (*sweepPass, error) {
	buf.Reset()
	p := &sweepPass{}
	start := time.Now()
	for _, g := range grids {
		t := time.Now()
		res, err := sweep.Run(context.Background(), g, sweep.Options{Workers: workers})
		if err != nil {
			return nil, err
		}
		if err := res.WriteJSON(buf); err != nil {
			return nil, err
		}
		p.calls = append(p.calls, time.Since(t).Seconds()*1e3)
		p.results = append(p.results, res)
	}
	p.seconds = time.Since(start).Seconds()
	h := sha256.Sum256(buf.Bytes())
	p.digest = hex.EncodeToString(h[:])
	for _, res := range p.results {
		p.points += len(res.Points)
		for i := range res.Outcomes {
			if strings.HasPrefix(res.Outcomes[i].Err, "panic:") {
				p.panics++
			}
		}
	}
	return p, nil
}

func runSweepSim(c *runCtx, rep *report) error   { return runSweep(c, rep, c.plan.SimGrids) }
func runSweepModel(c *runCtx, rep *report) error { return runSweep(c, rep, c.plan.ModelGrids) }

// runSweep is both sweep workloads: set-up (a warm-up pass, repeated),
// the 1-worker reference pass, a closed loop of passes for the window,
// then the output checks.
func runSweep(c *runCtx, rep *report, grids []sweep.Grid) error {
	var buf bytes.Buffer
	var setups []float64
	for i := 0; i < setupReps; i++ {
		p, err := runPass(grids, sweepWorkers, &buf)
		if err != nil {
			return err
		}
		setups = append(setups, p.seconds)
	}
	ref, err := runPass(grids, 1, &buf)
	if err != nil {
		return err
	}
	rep.Digests["reference_1worker"] = ref.digest

	// Only the last pass's results are kept, so memory does not grow
	// with the window.
	var last *sweepPass
	var passSec, callMs []float64
	sameAsRef := 0
	start := time.Now()
	for len(passSec) < 3 || time.Since(start).Seconds() < c.seconds {
		p, err := runPass(grids, sweepWorkers, &buf)
		if err != nil {
			return err
		}
		last = p
		passSec = append(passSec, p.seconds)
		callMs = append(callMs, p.calls...)
		if p.digest == ref.digest {
			sameAsRef++
		}
		for i := 0; i < p.points; i++ {
			rep.op(i >= p.panics)
		}
	}
	rep.Digests["pass"] = last.digest

	rep.set("setup_s", median(setups), "s")
	rep.set("ops_per_s", float64(last.points)/median(passSec), "1/s")
	rep.set("latency_p50_ms", percentile(callMs, 50), "ms")
	rep.set("latency_p90_ms", percentile(callMs, 90), "ms")
	rep.extra("pass_p50_s", median(passSec), "s")
	rep.extra("passes", float64(len(passSec)), "count")
	rep.extra("points_per_pass", float64(last.points), "count")
	rep.extra("infeasible_per_pass", float64(infeasible(last)), "count")

	rep.check("pass_digests_match_reference", sameAsRef == len(passSec),
		"%d of %d passes encode to the 1-worker reference digest", sameAsRef, len(passSec))
	checkSample(rep, last, c.plan.Seed)
	return nil
}

// infeasible counts a pass's infeasible points.
func infeasible(p *sweepPass) int {
	n := 0
	for _, res := range p.results {
		n += res.Stats.Errors
	}
	return n
}

// sampleSize is how many swept points the re-evaluation check covers.
const sampleSize = 24

// sampledPoints picks a seeded sample of about n of a pass's points, as
// (grid, point) index pairs, taking an equal share from every grid so
// each application is represented.
func sampledPoints(p *sweepPass, seed int64, n int) [][2]int {
	r := rand.New(rand.NewSource(seed*104729 + 11))
	per := (n + len(p.results) - 1) / len(p.results)
	var out [][2]int
	for g, res := range p.results {
		idx := r.Perm(len(res.Points))
		for _, i := range idx[:min(per, len(idx))] {
			out = append(out, [2]int{g, i})
		}
	}
	return out
}

// checkSample re-evaluates a seeded sample of the pass's points on a
// fresh evaluator; each must match the swept Outcome exactly (apart
// from the Pareto flag, which only the sweep's reduce sets).
func checkSample(rep *report, p *sweepPass, seed int64) {
	ev := sweep.NewEvaluator(0)
	bad := 0
	detail := ""
	sample := sampledPoints(p, seed, sampleSize)
	for _, gi := range sample {
		res := p.results[gi[0]]
		want := res.Outcomes[gi[1]]
		want.Pareto = false
		if got := ev.Evaluate(res.Points[gi[1]], res.Grid.Method); got != want {
			bad++
			detail = fmt.Sprintf("point %+v: got %+v want %+v", res.Points[gi[1]], got, want)
		}
	}
	rep.check("sample_reevaluation", bad == 0, "%d of %d sampled points differ %s", bad, len(sample), detail)
}
