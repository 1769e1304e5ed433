package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"codesign/internal/obs"
	"codesign/internal/serve"
)

// dryRun executes run with -dry-run into a buffer.
func dryRun(t *testing.T, o options) []byte {
	t.Helper()
	o.DryRun = true
	o.Quiet = true
	o.Out = "-"
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDryRunDeterministic pins the harness's core property: the same
// seed and workload flags produce a byte-identical report.
func TestDryRunDeterministic(t *testing.T) {
	o := options{Requests: 500, Concurrency: 8, Mode: "closed", Dup: 0.8,
		Seed: 42, Apps: "lu,fw,mm", Method: "model"}
	a := dryRun(t, o)
	b := dryRun(t, o)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different reports:\n%s\n%s", a, b)
	}

	o.Seed = 43
	c := dryRun(t, o)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical reports")
	}

	var rep Report
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Results != nil {
		t.Fatal("dry-run report must not contain measured results")
	}
	if rep.Workload.Requests != 500 || rep.Workload.DistinctKeys == 0 {
		t.Fatalf("workload = %+v", rep.Workload)
	}
	if rep.Workload.PlanDigest == "" {
		t.Fatal("missing plan digest")
	}
	// dup=0.8 over a 72-key universe: the plan must be duplicate-heavy.
	if rep.Workload.DupFractionActual < 0.5 {
		t.Fatalf("dup fraction actual = %v, want >= 0.5", rep.Workload.DupFractionActual)
	}
}

// TestUniverseIsFeasible asserts every query in the pool evaluates to
// a feasible outcome — a malformed pool would measure 400s, not the
// cache.
func TestUniverseIsFeasible(t *testing.T) {
	svc := serve.NewService(serve.Config{}, obs.NewRegistry())
	defer svc.Close()
	uni, err := universe([]string{"lu", "fw", "mm"}, "model")
	if err != nil {
		t.Fatal(err)
	}
	if len(uni) != 72 {
		t.Fatalf("universe has %d queries, want 72", len(uni))
	}
	for _, q := range uni {
		resp, err := svc.Solve(context.Background(), q)
		if err != nil {
			t.Fatalf("query %+v: %v", q, err)
		}
		if !resp.Outcome.OK {
			t.Fatalf("query %s infeasible: %s", canonicalKey(q), resp.Outcome.Err)
		}
	}
}

// TestClosedLoopAgainstServer drives a seeded duplicate-heavy burst
// (the default apps and method, -dup 0.8 -seed 1, 2000 requests at
// concurrency 16) through an in-process codesignd with the daemon's
// default configuration, and checks that the report and the /metrics
// surface agree the cache carried the load: clean 200s with no 5xx,
// majority cache hits, ordered latency percentiles, and every
// codesignd_* family on the scrape with a nonzero hit counter.
func TestClosedLoopAgainstServer(t *testing.T) {
	srv := serve.New(serve.Config{}, obs.NewRegistry())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	o := options{
		URL: ts.URL, Requests: 2000, Concurrency: 16, Mode: "closed",
		Dup: 0.8, Seed: 1, Apps: "lu,fw,mm", Method: "model",
		Quiet: true, Out: "-",
	}
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	r := rep.Results
	if r == nil {
		t.Fatal("missing results")
	}
	if r.Sent != 2000 || r.OK != 2000 || r.TransportErrors != 0 {
		t.Fatalf("results = %+v, want 2000 clean 200s", r)
	}
	for code := range r.StatusCounts {
		if c, err := strconv.Atoi(code); err != nil || c >= 500 {
			t.Fatalf("status counts %v include a 5xx", r.StatusCounts)
		}
	}
	if r.CacheHitRate <= 0.5 {
		t.Fatalf("cache hit rate = %v, want > 0.5 on a dup-heavy mix", r.CacheHitRate)
	}
	if r.Sources["cache"]+r.Sources["coalesced"]+r.Sources["computed"] != r.OK {
		t.Fatalf("sources %v don't add up to %d", r.Sources, r.OK)
	}
	if r.Latency.P99 < r.Latency.P50 || r.Latency.P50 <= 0 {
		t.Fatalf("latency summary inconsistent: %+v", r.Latency)
	}
	if r.ThroughputRPS <= 0 {
		t.Fatalf("throughput = %v", r.ThroughputRPS)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Every line of the scrape follows a newline.
	metrics := "\n" + string(scrape)
	for _, name := range []string{
		"codesignd_requests_total", "codesignd_request_seconds_bucket",
		"codesignd_inflight", "codesignd_queued", "codesignd_shed_total",
		"codesignd_deadline_total", "codesignd_solve_cache_hits_total",
		"codesignd_solve_cache_misses_total", "codesignd_solve_cache_coalesced_total",
		"codesignd_solve_cache_entries", "codesignd_solve_cache_evictions",
		"codesignd_solve_cache_hit_rate", "codesignd_memo_place_hit_rate",
		"codesignd_memo_partition_hit_rate", "codesignd_sweep_jobs_submitted_total",
		"codesignd_sweep_jobs_running",
	} {
		if !strings.Contains(metrics, "\n"+name) {
			t.Errorf("/metrics has no %s family", name)
		}
	}
	var hits float64
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, "codesignd_solve_cache_hits_total "); ok {
			hits, _ = strconv.ParseFloat(v, 64)
			break
		}
	}
	if hits <= 0 {
		t.Errorf("codesignd_solve_cache_hits_total = %v, want > 0", hits)
	}
}

// TestOpenLoop drives a short open-loop run.
func TestOpenLoop(t *testing.T) {
	srv := serve.New(serve.Config{}, obs.NewRegistry())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	o := options{
		URL: ts.URL, Requests: 50, Concurrency: 1, Mode: "open", Rate: 2000,
		Dup: 0.5, Seed: 3, Apps: "mm", Method: "model", Quiet: true, Out: "-",
	}
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Config.RateRPS != 2000 {
		t.Fatalf("config rate = %v", rep.Config.RateRPS)
	}
	if rep.Results == nil || rep.Results.OK != 50 {
		t.Fatalf("results = %+v", rep.Results)
	}
}

// TestFlagValidation covers the refusal paths.
func TestFlagValidation(t *testing.T) {
	cases := []options{
		{Requests: 0, Concurrency: 1, Mode: "closed", Apps: "lu"},
		{Requests: 1, Concurrency: 0, Mode: "closed", Apps: "lu"},
		{Requests: 1, Concurrency: 1, Mode: "closed", Dup: 1.5, Apps: "lu"},
		{Requests: 1, Concurrency: 1, Mode: "sideways", Apps: "lu"},
		{Requests: 1, Concurrency: 1, Mode: "open", Rate: 0, Apps: "lu"},
		{Requests: 1, Concurrency: 1, Mode: "closed", Apps: ""},
		{Requests: 1, Concurrency: 1, Mode: "closed", Apps: "cholesky"},
	}
	for i, o := range cases {
		o.DryRun = true
		o.Quiet = true
		var buf bytes.Buffer
		if err := run(o, &buf); err == nil {
			t.Errorf("case %d: expected an error", i)
		}
	}
}
