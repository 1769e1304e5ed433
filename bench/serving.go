package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"codesign/internal/obs"
	"codesign/internal/serve"
	"codesign/internal/sweep"
)

// server is an in-process codesignd: serve.Server behind a real
// net/http server on a loopback port.
type server struct {
	srv *serve.Server
	hs  *http.Server
	url string
	// done is closed when the HTTP server's Serve loop has returned.
	done chan struct{}
}

func startServer(cfg serve.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.New(cfg, obs.NewRegistry()), url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return s, nil
}

// close stops the HTTP server, waits for its loop to exit and cancels
// any running sweep job.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.done
	s.srv.Close()
}

// newClient is the benchmark's one HTTP client: at most two keep-alive
// connections, one per core of the machine the bounds were set on.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second, // far above any server deadline; a wedged server fails the run
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
	}
}

// do sends one request and reads the whole response body.
func do(hc *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// solveBody is a solve request's wire form and cache key.
type solveBody struct {
	body []byte
	key  string
}

func encodeSolve(q serve.SolveRequest) solveBody {
	b, err := json.Marshal(q)
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return solveBody{body: b, key: string(b)}
}

// outcomeBook remembers the first outcome served for each key, flags any
// later response that differs, and finally checks every key against a
// direct evaluation on a fresh evaluator.
type outcomeBook struct {
	mu     sync.Mutex
	first  map[string]serve.SolveResponse
	method map[string]string
}

func newOutcomeBook() *outcomeBook {
	return &outcomeBook{first: map[string]serve.SolveResponse{}, method: map[string]string{}}
}

// record decodes a 200 solve response and reports whether it is
// consistent with earlier responses for the key, and its source.
func (b *outcomeBook) record(key, method string, body []byte) (bool, string) {
	var r serve.SolveResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return false, ""
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	prev, seen := b.first[key]
	if !seen {
		b.first[key], b.method[key] = r, method
		return true, r.Source
	}
	return prev.Point == r.Point && prev.Outcome == r.Outcome, r.Source
}

// verify re-evaluates every distinct key on a fresh evaluator (two
// goroutines, one per core) and records one check.
func (b *outcomeBook) verify(rep *report) {
	type item struct {
		key string
		r   serve.SolveResponse
	}
	items := make(chan item)
	var bad atomic.Int64
	var wg sync.WaitGroup
	ev := sweep.NewEvaluator(0)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range items {
				if ev.Evaluate(it.r.Point, b.method[it.key]) != it.r.Outcome {
					bad.Add(1)
				}
			}
		}()
	}
	for k, r := range b.first {
		items <- item{k, r}
	}
	close(items)
	wg.Wait()
	rep.check("served_outcomes_match_direct_evaluation", bad.Load() == 0,
		"%d of %d distinct keys differ from Evaluator.Evaluate", bad.Load(), len(b.first))
}

// fill solves every request once, sequentially; failures count
// against rep.
func fill(hc *http.Client, url string, reqs []serve.SolveRequest, rep *report) {
	for _, q := range reqs {
		status, _, err := do(hc, http.MethodPost, url+"/v1/solve", encodeSolve(q).body)
		rep.op(err == nil && status == http.StatusOK)
	}
}

// serveSetupReps is setupReps for the serving workloads, whose set-up
// takes tens of milliseconds, so more repeats cost little and steady
// the median.
const serveSetupReps = 15

// setupServer builds a server and fills its cache serveSetupReps
// times, reporting the median as setup_s, and returns the last one.
func setupServer(cfg serve.Config, hc *http.Client, warm []serve.SolveRequest, rep *report) (*server, error) {
	var times []float64
	var s *server
	for i := 0; i < serveSetupReps; i++ {
		if s != nil {
			s.close()
			hc.CloseIdleConnections()
		}
		start := time.Now()
		var err error
		if s, err = startServer(cfg); err != nil {
			return nil, err
		}
		fill(hc, s.url, warm, rep)
		times = append(times, time.Since(start).Seconds())
	}
	rep.set("setup_s", median(times), "s")
	return s, nil
}

// runServeHot is the cache-hit read path: two closed-loop clients
// replaying a duplicate-heavy stream over a working set that was fully
// loaded into the solve cache during set-up.
func runServeHot(c *runCtx, rep *report) error {
	hc := newClient()
	defer hc.CloseIdleConnections()
	s, err := setupServer(serve.Config{}, hc, c.plan.HotKeys, rep)
	if err != nil {
		return err
	}
	defer s.close()

	keys := make([]solveBody, len(c.plan.HotKeys))
	for i, q := range c.plan.HotKeys {
		keys[i] = encodeSolve(q)
	}
	book := newOutcomeBook()
	var next atomic.Int64
	stream := c.plan.HotStream
	// loop runs both clients for d and returns the latencies, counts and
	// the time until the last response arrived.
	loop := func(d time.Duration) (lat []float64, ok, failed int, elapsed float64) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		start := time.Now()
		stop := start.Add(d)
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var my []float64
				var myOK, myFailed int
				for time.Now().Before(stop) {
					k := keys[stream[int(next.Add(1)-1)%len(stream)]]
					t := time.Now()
					status, body, err := do(hc, http.MethodPost, s.url+"/v1/solve", k.body)
					d := time.Since(t)
					good := err == nil && status == http.StatusOK
					if good {
						good, _ = book.record(k.key, sweep.MethodModel, body)
					}
					if good {
						myOK++
						my = append(my, d.Seconds()*1e3)
					} else {
						myFailed++
					}
				}
				mu.Lock()
				lat, ok, failed = append(lat, my...), ok+myOK, failed+myFailed
				mu.Unlock()
			}()
		}
		wg.Wait()
		return lat, ok, failed, time.Since(start).Seconds()
	}
	loop(500 * time.Millisecond) // warm-up, discarded
	before := s.srv.Service().CacheStats()
	lat, ok, failed, elapsed := loop(time.Duration(c.seconds * float64(time.Second)))
	after := s.srv.Service().CacheStats()
	rep.Attempted += ok + failed
	rep.Failed += failed

	rep.set("ops_per_s", float64(ok)/elapsed, "1/s")
	rep.set("latency_p50_ms", percentile(lat, 50), "ms")
	rep.set("latency_p90_ms", percentile(lat, 90), "ms")
	rep.extra("latency_p99_ms", percentile(lat, 99), "ms")
	if n := after.Lookups - before.Lookups; n > 0 {
		rep.extra("cache_hit_frac", float64(after.Hits-before.Hits)/float64(n), "frac")
	}
	rep.extra("requests", float64(ok+failed), "count")
	book.verify(rep)
	return nil
}

// mixedSample is one scheduled serve-mixed request's measurement.
type mixedSample struct {
	design   bool
	method   string
	source   string
	ok       bool
	latency  float64 // ms from due time to response
	late     float64 // ms from due time to send
	done     float64 // s from the window's start to the response
	measured bool    // due inside the window (not the warm-up)
}

// runServeMixed is the mixed read/write path: an open loop at a fixed
// rate of model solves that keep the reduced cache evicting, sim solves
// that mostly compute, and small design grids, beside a sim sweep job
// that is resubmitted whenever the previous one finishes.
func runServeMixed(c *runCtx, rep *report) error {
	hc := newClient()
	defer hc.CloseIdleConnections()
	s, err := setupServer(mixedConfig, hc, c.plan.MixedPrefill, rep)
	if err != nil {
		return err
	}
	defer s.close()
	book := newOutcomeBook()

	before := s.srv.Service().CacheStats()
	samples, jobs := openLoop(c, s, hc, book, rep)
	after := s.srv.Service().CacheStats()

	var all, computed, designs, late []float64
	ok := 0
	var last float64
	sims, simComputedTail, simTail := 0, 0, 0
	n := len(samples)
	for i, sm := range samples {
		if !sm.measured {
			continue
		}
		rep.op(sm.ok)
		if !sm.ok {
			continue
		}
		ok++
		last = max(last, sm.done)
		all = append(all, sm.latency)
		late = append(late, sm.late)
		switch {
		case sm.design:
			designs = append(designs, sm.latency)
		case sm.source == "computed":
			computed = append(computed, sm.latency)
		}
		if sm.method == sweep.MethodSim {
			sims++
			if i >= n-n/5 {
				simTail++
				if sm.source == "computed" {
					simComputedTail++
				}
			}
		}
	}
	// Completions over the time from the window's start to the last
	// response: the offered rate while the server keeps up, less once a
	// backlog builds.
	rep.set("ops_per_s", float64(ok)/last, "1/s")
	rep.set("latency_p50_ms", percentile(all, 50), "ms")
	rep.set("latency_p90_ms", percentile(all, 90), "ms")
	rep.extra("latency_p99_ms", percentile(all, 99), "ms")
	rep.extra("computed_p90_ms", percentile(computed, 90), "ms")
	rep.extra("design_p90_ms", percentile(designs, 90), "ms")
	rep.extra("late_p99_ms", percentile(late, 99), "ms")
	rep.extra("sweep_job_s", median(jobs), "s")
	rep.extra("sweep_jobs", float64(len(jobs)), "count")
	rep.extra("sim_solves", float64(sims), "count")
	if simTail > 0 {
		rep.extra("sim_computed_frac_last_fifth", float64(simComputedTail)/float64(simTail), "frac")
	}
	if l := after.Lookups - before.Lookups; l > 0 {
		rep.extra("cache_hit_frac", float64(after.Hits-before.Hits)/float64(l), "frac")
	}
	rep.extra("cache_evictions", float64(after.Evictions-before.Evictions), "count")
	book.verify(rep)
	return nil
}

// mixedConfig is serve-mixed's server: a solve cache smaller than the
// model working set, and one worker per sweep job so the job leaves a
// core for the request path.
var mixedConfig = serve.Config{CacheBound: mixedCacheBound, SweepWorkers: 1}

// openLoop sends c.plan.Mixed on its schedule (warm-up first, then the
// window) while a sweep job is kept running, and returns one sample per
// scheduled request and the completed jobs' submit-to-done times.
func openLoop(c *runCtx, s *server, hc *http.Client, book *outcomeBook, rep *report) ([]mixedSample, []float64) {
	ops := c.plan.Mixed
	bodies := make([][]byte, len(ops))
	keys := make([]string, len(ops))
	for i, op := range ops {
		if op.Solve != nil {
			sb := encodeSolve(*op.Solve)
			bodies[i], keys[i] = sb.body, sb.key
		} else {
			b, err := json.Marshal(op.Design)
			if err != nil {
				panic(err) // plain data: cannot fail
			}
			bodies[i] = b
		}
	}
	stop := make(chan struct{})
	jobsDone := make(chan []float64)
	go func() { jobsDone <- jobLoop(s, hc, c.plan.JobGrid, stop, rep) }()

	samples := make([]mixedSample, len(ops))
	interval := time.Second / mixedRate
	warmTicks := int(mixedWarmup * mixedRate)
	var wg sync.WaitGroup
	t0 := time.Now()
	window := t0.Add(time.Duration(warmTicks) * interval)
	for i := range ops {
		due := t0.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			op := ops[i]
			sm := mixedSample{design: op.Design != nil, measured: i >= warmTicks}
			path := "/v1/solve"
			if sm.design {
				path = "/v1/design"
			} else {
				sm.method = op.Solve.Method
			}
			sm.late = time.Since(due).Seconds() * 1e3
			status, body, err := do(hc, http.MethodPost, s.url+path, bodies[i])
			sm.latency = time.Since(due).Seconds() * 1e3
			sm.done = time.Since(window).Seconds()
			sm.ok = err == nil && status == http.StatusOK
			if sm.ok && sm.design {
				var dr serve.DesignResponse
				sm.ok = json.Unmarshal(body, &dr) == nil && dr.Points == op.Design.Grid.NumPoints()
			} else if sm.ok {
				sm.ok, sm.source = book.record(keys[i], sm.method, body)
			}
			samples[i] = sm
		}(i, due)
	}
	wg.Wait()
	close(stop)
	return samples, <-jobsDone
}

// jobLoop keeps one /v1/sweep job running until stop closes, polling
// it over the shared client every 50 ms, and returns each completed
// job's submit-to-done time. Every job's records must be identical and
// equal a direct sweep.Run of the same grid.
func jobLoop(s *server, hc *http.Client, g sweep.Grid, stop <-chan struct{}, rep *report) []float64 {
	body, err := json.Marshal(serve.SweepRequest{Grid: g})
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	var times []float64
	digests := map[string]int{}
	for {
		select {
		case <-stop:
			want, err := sweep.Run(context.Background(), g, sweep.Options{Workers: sweepWorkers})
			wantDigest := ""
			if err == nil {
				wantDigest = recordsDigest(want.Records)
			}
			rep.check("sweep_jobs_match_direct_run", len(digests) == 1 && digests[wantDigest] > 0,
				"%d jobs, %d distinct record digests", len(times), len(digests))
			return times
		default:
		}
		submit := time.Now()
		status, b, err := do(hc, http.MethodPost, s.url+"/v1/sweep", body)
		var job serve.JobResponse
		ok := err == nil && status == http.StatusAccepted && json.Unmarshal(b, &job) == nil
		rep.op(ok)
		if !ok {
			return times
		}
	poll:
		for {
			select {
			case <-stop:
				break poll // unfinished at the end of the window: not counted
			case <-time.After(50 * time.Millisecond):
			}
			status, b, err := do(hc, http.MethodGet, s.url+"/v1/sweep/"+job.Job, nil)
			var jr serve.JobResponse
			ok := err == nil && status == http.StatusOK && json.Unmarshal(b, &jr) == nil && jr.Status != serve.JobFailed
			rep.op(ok)
			switch {
			case !ok:
				return times
			case jr.Status == serve.JobDone && jr.Result != nil:
				times = append(times, time.Since(submit).Seconds())
				digests[recordsDigest(jr.Result.Records)]++
				break poll
			}
		}
	}
}

// recordsDigest hashes a sweep's per-point records (its Stats depend on
// what the shared evaluator had memoized, so they are left out).
func recordsDigest(recs []sweep.Record) string {
	b, err := json.Marshal(recs)
	if err != nil {
		return ""
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
