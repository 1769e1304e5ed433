package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"codesign/internal/machine"
	"codesign/internal/matrix"
	"codesign/internal/obs"
	"codesign/internal/serve"
	"codesign/internal/sim"
	"codesign/internal/sweep"
	"codesign/internal/trace"
)

// The traced run builds the per-layer ledger. It is the same for every
// workload: each per-layer metric is measured on the workload whose
// path runs through that layer (bench/README.md has the map), so one
// traced run covers all four. End-to-end metrics never come from it.

// Replay sample sizes.
const (
	tracedSimPasses   = 3    // traced and untraced sweep-sim passes each
	coveragePasses    = 4    // one-worker sweep-sim passes and chain replays per point
	modelReplayPoints = 2000 // sweep-model points replayed through fpga and model
	hotReplayRequests = 1000 // serve-hot requests replayed three ways
	computedReplays   = 40   // serve-mixed sim solves replayed on a fresh service
	designReplays     = 20   // serve-mixed design grids replayed on a fresh service
)

// ledger accumulates the traced run's spans, checks and metrics.
type ledger struct {
	*tracer
	rep  *report
	seed int64
	req  int64
}

func (l *ledger) nextReq() int64 { l.req++; return l.req }

// perCall is the median per-call duration of a span name, in unit
// (1 = seconds, 1e3 = ms, 1e6 = µs).
func (l *ledger) perCall(name string, scale float64) float64 {
	return median(l.durs[name]) * scale
}

func runTraced(c *runCtx, rep *report, spansPath string) error {
	l := &ledger{tracer: newTracer(), rep: rep, seed: c.plan.Seed}
	if err := l.sweepSim(c.plan.SimGrids); err != nil {
		return fmt.Errorf("sweep-sim replay: %w", err)
	}
	if err := l.sweepModel(c.plan.ModelGrids); err != nil {
		return fmt.Errorf("sweep-model replay: %w", err)
	}
	if err := l.serveHot(c.plan); err != nil {
		return fmt.Errorf("serve-hot replay: %w", err)
	}
	if err := l.serveMixed(c); err != nil {
		return fmt.Errorf("serve-mixed replay: %w", err)
	}
	spans := l.rec.snapshot()
	rep.extra("spans_written", float64(len(spans)), "count")
	return writeSpans(spansPath, spans)
}

// tracedPass is runPass with spans: one per grid's sweep.Run, one per
// point (from OnProgress), the reduce (final OnProgress to Run's
// return) and the encode. It returns the pass and each point's
// evaluation seconds, keyed by (grid, index).
func (l *ledger) tracedPass(grids []sweep.Grid, workers int, buf *bytes.Buffer, pointSpans bool) (*sweepPass, map[[2]int]float64, error) {
	buf.Reset()
	p := &sweepPass{}
	pointSec := map[[2]int]float64{}
	req := l.nextReq()
	root := l.rec.begin("sweep.pass", 0, req)
	start := time.Now()
	for gi, g := range grids {
		run := l.rec.begin("sweep.run", root, req)
		var lastIdx int
		var lastProgress time.Time
		opts := sweep.Options{
			Workers:  workers,
			OnResult: func(pt sweep.Point, _ sweep.Outcome) { lastIdx = pt.Index },
			OnProgress: func(pr sweep.Progress) {
				lastProgress = time.Now()
				pointSec[[2]int{gi, lastIdx}] = pr.PointSeconds
				l.durs["sweep.point"] = append(l.durs["sweep.point"], pr.PointSeconds)
				if pointSpans {
					d := time.Duration(pr.PointSeconds * float64(time.Second))
					l.rec.add("sweep.point", run, req, lastProgress.Add(-d), lastProgress)
				}
			},
		}
		res, err := sweep.Run(context.Background(), g, opts)
		if err != nil {
			return nil, nil, err
		}
		l.rec.add("sweep.reduce", run, req, lastProgress, time.Now())
		l.durs["sweep.reduce"] = append(l.durs["sweep.reduce"], time.Since(lastProgress).Seconds())
		l.rec.end(run)
		l.call("sweep.encode", root, req, func() { err = res.WriteJSON(buf) })
		if err != nil {
			return nil, nil, err
		}
		p.results = append(p.results, res)
		p.points += len(res.Points)
	}
	p.seconds = time.Since(start).Seconds()
	l.rec.end(root)
	return p, pointSec, nil
}

// sweepSim measures the sim path: traced against untraced passes for
// the tracing overhead, then a seeded sample of points replayed
// through every layer the evaluator calls.
func (l *ledger) sweepSim(grids []sweep.Grid) error {
	var buf bytes.Buffer
	var plain, traced []float64
	var first *sweepPass
	for i := 0; i < tracedSimPasses; i++ {
		p, err := runPass(grids, sweepWorkers, &buf)
		if err != nil {
			return err
		}
		plain = append(plain, p.seconds)
		tp, _, err := l.tracedPass(grids, sweepWorkers, &buf, true)
		if err != nil {
			return err
		}
		traced = append(traced, tp.seconds)
		if first == nil {
			first = tp
		}
	}
	pts := float64(first.points)
	l.rep.set("bench.trace_overhead_frac", (pts/median(plain))/(pts/median(traced))-1, "frac")
	pointMs := make([]float64, len(l.durs["sweep.point"]))
	for i, s := range l.durs["sweep.point"] {
		pointMs[i] = s * 1e3
	}
	l.rep.set("sweep.point_p50_ms", percentile(pointMs, 50), "ms")
	l.rep.set("sweep.point_p99_ms", percentile(pointMs, 99), "ms")

	// Coverage compares the layer chain with the sweep's own per-point
	// clock. The clock is read with one worker: with two, a point's time
	// includes whatever its neighbour did to the shared caches and
	// collector, which a replay of one point cannot reproduce. Passes
	// and chain replays alternate so both see the same phases of the
	// host's speed. Like the evaluator, which gives each sweep.Run a
	// fresh recorder pool, the chain records a grid's first point into
	// a new recorder and later points into a warmed one.
	sample := sampledPoints(first, l.seed, sampleSize)
	type replayed struct {
		out sweep.Outcome
		sim *simRun
		r   resolvedPoint
	}
	jobs := len(sample) * coveragePasses
	reps := make([]replayed, jobs)
	base := l.req
	l.req += int64(jobs)
	warm := trace.NewRecorder()
	pointSecs := map[[2]int][]float64{}
	for pass := 0; pass < coveragePasses; pass++ {
		_, sec, err := l.tracedPass(grids, 1, &buf, false)
		if err != nil {
			return err
		}
		for k, v := range sec {
			pointSecs[k] = append(pointSecs[k], v)
		}
		for i, gi := range sample {
			j := pass*len(sample) + i
			pt := first.results[gi[0]].Points[gi[1]]
			rec := warm
			if pt.Index == 0 {
				rec = trace.NewRecorder()
			}
			req := base + int64(j) + 1
			root := l.rec.begin("replay.point", 0, req)
			out, sr, r := l.evaluate(pt, sweep.MethodSim, rec, root, req)
			l.rec.end(root)
			reps[j] = replayed{out, sr, r}
		}
	}

	// Beside the chain, one at a time: the same simulation with and
	// without a span recorder (engine counters on for the second), the
	// machine build core does inside it, and the sparse operator apply.
	ctr := &sim.Counters{}
	var buildSec, plainRunSec, recRunSec float64
	runMs := map[string][]float64{}
	bad := 0
	for j, rp := range reps {
		gi := sample[j%len(sample)]
		want := first.results[gi[0]].Outcomes[gi[1]]
		want.Pareto = false
		if rp.out != want {
			bad++
		}
	}
	for i, gi := range sample {
		pt := first.results[gi[0]].Points[gi[1]]
		sr, r := reps[i].sim, reps[i].r
		if sr == nil {
			continue
		}
		req := base + int64(i) + 1
		var err error
		warm.Reset()
		recRunSec += l.call("core.run_recorded", 0, req, func() { _, _, _, _, err = sr.run(warm) })
		if err != nil {
			return err
		}
		sim.InstallCounters(ctr)
		d := l.call("core.run_plain", 0, req, func() { _, _, _, _, err = sr.run(nil) })
		sim.InstallCounters(nil)
		if err != nil {
			return err
		}
		plainRunSec += d
		runMs[pt.App] = append(runMs[pt.App], d*1e3)
		buildSec += l.call("machine.build", 0, req, func() {
			var sys *machine.System
			if sys, err = machine.New(r.cfg); err == nil {
				err = sys.InstallDesign(designFor(pt.App, r.k))
			}
		})
		if err != nil {
			return err
		}
		if pt.App == "spmv" && pt.Density > 0 {
			a := matrix.RandomSparse(r.n, pt.Density, rand.New(rand.NewSource(0)))
			x, y := make([]float64, r.n), make([]float64, r.n)
			for i := range x {
				x[i] = float64(i%7) - 3
			}
			l.call("matrix.apply", 0, req, func() { a.Apply(x, y) })
		}
	}
	l.rep.check("sim_replay_matches_sweep", bad == 0, "%d of %d replayed points differ from the sweep", bad, jobs)

	// Coverage: the layer chain's time against the sweep's own
	// per-point clock for the same points, each point's median over
	// its replays and over the traced passes.
	spans := l.rec.snapshot()
	self := selfTimes(spans)
	chain := make([]float64, jobs)
	for _, s := range spans {
		if j := s.Req - base - 1; s.Parent != 0 && j >= 0 && j < int64(jobs) {
			chain[j] += float64(self[s.ID]) / 1e9
		}
	}
	var swept, layered float64
	for i, gi := range sample {
		var per []float64
		for j := i; j < jobs; j += len(sample) {
			per = append(per, chain[j])
		}
		layered += median(per)
		swept += median(pointSecs[gi])
	}
	l.rep.set("bench.coverage_frac", layered/swept, "frac")
	for _, app := range apps {
		l.rep.set("core.run_ms."+app, median(runMs[app]), "ms")
	}
	snap := ctr.Snapshot()
	parks := snap.Handoffs + snap.SelfResumes + snap.FusedSteps
	l.rep.set("sim.events", float64(snap.EventsPopped), "count")
	l.rep.set("sim.events_per_s", float64(snap.EventsPopped)/plainRunSec, "1/s")
	l.rep.set("sim.handoff_frac", float64(snap.Handoffs)/float64(parks), "frac")
	l.rep.set("sim.fused_frac", float64(snap.FusedSteps)/float64(parks), "frac")
	l.rep.set("sim.spawns", float64(snap.Spawns), "count")
	l.rep.set("machine.build_us", l.perCall("machine.build", 1e6), "us")
	l.rep.set("machine.build_share", buildSec/plainRunSec, "frac")
	l.rep.set("trace.spans", float64(l.simSpans), "count")
	l.rep.set("trace.record_frac", (recRunSec-plainRunSec)/plainRunSec, "frac")
	l.rep.set("trace.overlap_ms", l.perCall("trace.overlap", 1e3), "ms")
	l.rep.set("analysis.classify_ms", l.perCall("analysis.classify", 1e3), "ms")
	l.rep.set("matrix.apply_ms", l.perCall("matrix.apply", 1e3), "ms")
	return nil
}

// sweepModel measures the model path: one traced pass for the reduce,
// encode and memo counts, then a seeded sample of its points replayed
// through fpga and model. Span and duration names are reset first so
// the per-call model and fpga numbers come from this workload alone.
func (l *ledger) sweepModel(grids []sweep.Grid) error {
	for _, k := range []string{"sweep.point", "sweep.reduce", "sweep.encode", "fpga.maxpes", "fpga.place", "model.solve", "model.predict"} {
		delete(l.durs, k)
	}
	var buf bytes.Buffer
	p, _, err := l.tracedPass(grids, sweepWorkers, &buf, false)
	if err != nil {
		return err
	}
	var st sweep.Stats
	for _, res := range p.results {
		s := res.Stats
		st.PlaceLookups += s.PlaceLookups
		st.PlaceSolves += s.PlaceSolves
		st.PartitionLookups += s.PartitionLookups
		st.PartitionSolves += s.PartitionSolves
		st.ResolveLookups += s.ResolveLookups
		st.ResolveSolves += s.ResolveSolves
	}
	frac := func(lookups, solves int) float64 {
		if lookups == 0 {
			return 0
		}
		return float64(lookups-solves) / float64(lookups)
	}
	l.rep.set("sweep.reduce_s", sum(l.durs["sweep.reduce"]), "s")
	l.rep.set("sweep.encode_s", sum(l.durs["sweep.encode"]), "s")
	l.rep.set("sweep.eval_busy_s", sum(l.durs["sweep.point"]), "s")
	l.rep.set("sweep.place_hit_frac", frac(st.PlaceLookups, st.PlaceSolves), "frac")
	l.rep.set("sweep.partition_hit_frac", frac(st.PartitionLookups, st.PartitionSolves), "frac")
	l.rep.set("sweep.resolve_hit_frac", frac(st.ResolveLookups, st.ResolveSolves), "frac")

	bad := 0
	sample := sampledPoints(p, l.seed, modelReplayPoints)
	for _, gi := range sample {
		res := p.results[gi[0]]
		want := res.Outcomes[gi[1]]
		want.Pareto = false
		req := l.nextReq()
		root := l.rec.begin("replay.point", 0, req)
		got, _, _ := l.evaluate(res.Points[gi[1]], sweep.MethodModel, nil, root, req)
		l.rec.end(root)
		if got != want {
			bad++
		}
	}
	l.rep.check("model_replay_matches_sweep", bad == 0, "%d of %d replayed points differ from the sweep", bad, len(sample))
	l.rep.set("model.solve_us", l.perCall("model.solve", 1e6), "us")
	l.rep.set("model.predict_us", l.perCall("model.predict", 1e6), "us")
	l.rep.set("fpga.maxpes_us", l.perCall("fpga.maxpes", 1e6), "us")
	l.rep.set("fpga.place_us", l.perCall("fpga.place", 1e6), "us")
	return nil
}

// serveHot replays a sample of the hot stream three ways against one
// warmed server: over loopback HTTP, through the handler into a
// ResponseRecorder, and through Service.Solve directly.
func (l *ledger) serveHot(p *plan) error {
	hc := newClient()
	defer hc.CloseIdleConnections()
	s, err := startServer(serve.Config{})
	if err != nil {
		return err
	}
	defer s.close()
	fill(hc, s.url, p.HotKeys, l.rep)
	svc := s.srv.Service()
	before := svc.CacheStats()
	var sizes []float64
	coalesced, bad := 0, 0
	for i := 0; i < hotReplayRequests; i++ {
		q := p.HotKeys[p.HotStream[i%len(p.HotStream)]]
		sb := encodeSolve(q)
		req := l.nextReq()
		var status int
		var body []byte
		l.call("http.roundtrip", 0, req, func() { status, body, err = do(hc, http.MethodPost, s.url+"/v1/solve", sb.body) })
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			return err
		}
		sizes = append(sizes, float64(len(body)))
		rr := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(sb.body))
		l.call("http.handler", 0, req, func() { s.srv.Handler().ServeHTTP(rr, hreq) })
		var direct *serve.SolveResponse
		l.call("serve.solve", 0, req, func() { direct, err = svc.Solve(context.Background(), q) })
		if err != nil {
			return err
		}
		var viaHTTP serve.SolveResponse
		ok := rr.Code == http.StatusOK && bytes.Equal(rr.Body.Bytes(), body) &&
			json.Unmarshal(body, &viaHTTP) == nil && viaHTTP.Outcome == direct.Outcome
		l.rep.op(ok)
		if !ok {
			bad++
		}
		if viaHTTP.Source == "coalesced" {
			coalesced++
		}
	}
	after := svc.CacheStats()
	l.rep.check("hot_replay_paths_agree", bad == 0, "%d of %d replayed requests differ between HTTP, handler and Service", bad, hotReplayRequests)
	l.rep.set("cache.hit_frac.hot", float64(after.Hits-before.Hits)/float64(after.Lookups-before.Lookups), "frac")
	l.rep.set("cache.coalesced_frac.hot", float64(coalesced)/hotReplayRequests, "frac")
	l.rep.set("cache.evictions.hot", float64(after.Evictions-before.Evictions), "count")
	l.rep.set("http.roundtrip_us", l.perCall("http.roundtrip", 1e6), "us")
	l.rep.set("http.handler_us", l.perCall("http.handler", 1e6), "us")
	l.rep.set("http.socket_us", l.perCall("http.roundtrip", 1e6)-l.perCall("http.handler", 1e6), "us")
	l.rep.set("http.response_bytes", median(sizes), "B")
	l.rep.set("serve.solve_us", l.perCall("serve.solve", 1e6), "us")
	return nil
}

// serveMixed runs a short serve-mixed window for the cache and
// generator numbers, then replays sampled sim solves and design grids
// directly on a fresh service, where every solve computes.
func (l *ledger) serveMixed(c *runCtx) error {
	short := max(2, c.seconds/5)
	sc := &runCtx{seconds: short, plan: &plan{}}
	*sc.plan = *c.plan
	sc.plan.Mixed = c.plan.Mixed[:min(len(c.plan.Mixed), int((mixedWarmup+short)*mixedRate)+1)]
	hc := newClient()
	defer hc.CloseIdleConnections()
	s, err := startServer(mixedConfig)
	if err != nil {
		return err
	}
	fill(hc, s.url, sc.plan.MixedPrefill, l.rep)
	book := newOutcomeBook()
	before := s.srv.Service().CacheStats()
	samples, _ := openLoop(sc, s, hc, book, l.rep)
	after := s.srv.Service().CacheStats()
	s.close()
	var late []float64
	coalesced, solves := 0, 0
	for _, sm := range samples {
		if !sm.measured {
			continue
		}
		l.rep.op(sm.ok)
		late = append(late, sm.late)
		if !sm.design {
			solves++
			if sm.source == "coalesced" {
				coalesced++
			}
		}
	}
	l.rep.set("cache.hit_frac.mixed", float64(after.Hits-before.Hits)/float64(after.Lookups-before.Lookups), "frac")
	l.rep.set("cache.coalesced_frac.mixed", float64(coalesced)/float64(solves), "frac")
	l.rep.set("cache.evictions.mixed", float64(after.Evictions-before.Evictions), "count")
	l.rep.set("loadgen.late_p99_ms", percentile(late, 99), "ms")
	book.verify(l.rep)

	svc := serve.NewService(mixedConfig, obs.NewRegistry())
	defer svc.Close()
	seen := map[string]bool{}
	var nSim, nDesign, bad int
	for _, op := range c.plan.Mixed {
		switch {
		case op.Solve != nil && op.Solve.Method == sweep.MethodSim && nSim < computedReplays:
			sb := encodeSolve(*op.Solve)
			if seen[sb.key] {
				continue
			}
			seen[sb.key] = true
			nSim++
			var r *serve.SolveResponse
			l.call("serve.computed", 0, l.nextReq(), func() { r, err = svc.Solve(context.Background(), *op.Solve) })
			ok := err == nil && r.Source == "computed"
			l.rep.op(ok)
			if !ok {
				bad++
			}
		case op.Design != nil && nDesign < designReplays:
			nDesign++
			var r *serve.DesignResponse
			l.call("serve.design", 0, l.nextReq(), func() { r, err = svc.Design(context.Background(), *op.Design) })
			ok := err == nil && r.Points == op.Design.Grid.NumPoints()
			l.rep.op(ok)
			if !ok {
				bad++
			}
		}
	}
	l.rep.check("mixed_direct_replays", bad == 0, "%d of %d direct solves and designs failed", bad, nSim+nDesign)
	l.rep.set("serve.computed_ms", l.perCall("serve.computed", 1e3), "ms")
	l.rep.set("serve.design_ms", l.perCall("serve.design", 1e3), "ms")
	return nil
}
