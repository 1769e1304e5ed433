package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"codesign/internal/cache"
	"codesign/internal/obs"
	"codesign/internal/sweep"
)

// Config tunes the serve layer. The zero value takes the documented
// defaults; fields where "unlimited" is meaningful treat negative
// values as unbounded. withDefaults is idempotent, so a Config can be
// passed through New and NewService unchanged.
type Config struct {
	// CacheBound bounds the solve cache (entries; 0 = 4096, < 0 =
	// unbounded). Each entry is one canonicalized request's Outcome.
	CacheBound int
	// MemoBound bounds each of the shared evaluator's two memo caches
	// (place-and-route and partition solves; 0 = 65536, < 0 =
	// unbounded).
	MemoBound int
	// MaxInFlight bounds concurrently evaluating compute requests
	// (/v1/solve and /v1/design; 0 = 32).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot; beyond
	// it requests are shed with 429 (0 = 256, < 0 = no queue).
	MaxQueue int
	// RequestTimeout is the per-request deadline, also the upper bound
	// of the ?timeout_ms= override (0 = 30s).
	RequestTimeout time.Duration
	// MaxDesignPoints caps a synchronous /v1/design grid (0 = 10000).
	MaxDesignPoints int
	// MaxSweepPoints caps an asynchronous /v1/sweep grid (0 = 100000;
	// internal/sweep's own MaxPoints still applies).
	MaxSweepPoints int
	// MaxRunningJobs bounds concurrently running sweep jobs; further
	// submissions are shed with 429 (0 = 2).
	MaxRunningJobs int
	// MaxJobs bounds retained job records; the oldest finished jobs
	// are evicted beyond it (0 = 64; floored at MaxRunningJobs+1).
	MaxJobs int
	// SweepWorkers bounds each sweep job's worker pool (0 = one per
	// CPU).
	SweepWorkers int
}

// withDefaults fills zero fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.CacheBound == 0 {
		c.CacheBound = 4096
	}
	if c.MemoBound == 0 {
		c.MemoBound = 65536
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 32
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 256
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxDesignPoints <= 0 {
		c.MaxDesignPoints = 10000
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 100000
	}
	if c.MaxRunningJobs <= 0 {
		c.MaxRunningJobs = 2
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 64
	}
	if c.MaxJobs <= c.MaxRunningJobs {
		c.MaxJobs = c.MaxRunningJobs + 1
	}
	return c
}

// Service is the transport-independent core of codesignd: a shared
// memoized evaluator, the canonical-key solve cache with request
// coalescing, and the asynchronous sweep job store, all instrumented
// on one obs.Registry. Server puts HTTP in front of it; tests and
// embedders can call it directly. All methods are safe for concurrent
// use.
type Service struct {
	cfg    Config
	eval   *sweep.Evaluator
	solves *cache.Loading[string, sweep.Outcome]
	jobs   *jobStore
	m      *metrics

	// evalFn is the point evaluator and runSweep/runScreened the sweep
	// runners, all swappable by tests to simulate slow or blocking
	// work.
	evalFn      func(sweep.Point, string) sweep.Outcome
	runSweep    func(context.Context, sweep.Grid, sweep.Options) (*sweep.Result, error)
	runScreened func(context.Context, sweep.Grid, sweep.ScreenOptions) (*sweep.Result, error)

	// baseCtx outlives requests and parents background sweep jobs;
	// Close cancels it.
	baseCtx context.Context
	cancel  context.CancelFunc
}

// NewService builds a service with its metric families registered on
// reg (which must be non-nil; pass a fresh obs.NewRegistry() when not
// exporting).
func NewService(cfg Config, reg *obs.Registry) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:    cfg,
		eval:   sweep.NewEvaluator(cfg.MemoBound),
		solves: cache.NewLoading[string, sweep.Outcome](cfg.CacheBound),
		jobs:   newJobStore(cfg.MaxJobs, cfg.MaxRunningJobs),
	}
	s.evalFn = s.eval.Evaluate
	s.runSweep = sweep.Run
	s.runScreened = sweep.RunScreened
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.m = newMetrics(reg, s)
	return s
}

// Close cancels running sweep jobs (they finish as JobFailed). Solve
// and design calls already in progress complete normally.
func (s *Service) Close() { s.cancel() }

// Evaluator returns the shared memoized evaluator, for callers that
// want to run their own sweeps against the service's memo state.
func (s *Service) Evaluator() *sweep.Evaluator { return s.eval }

// CacheStats returns the solve cache's counters.
func (s *Service) CacheStats() cache.Stats { return s.solves.Stats() }

// cacheSnapshotVersion guards the SaveCache wire format; LoadCache
// rejects snapshots written by an incompatible future format instead
// of silently seeding garbage.
const cacheSnapshotVersion = 1

// cacheSnapshot is the JSON envelope SaveCache writes and LoadCache
// reads: a version plus the solve cache entries in recency order.
type cacheSnapshot struct {
	Version int                                  `json:"version"`
	Entries []cache.Entry[string, sweep.Outcome] `json:"entries"`
}

// SaveCache writes a JSON snapshot of the solve cache to w (most
// recently used entry first) and returns the entry count. Restoring
// it with LoadCache on the next boot makes a restarted daemon serve
// its working set from cache instead of re-solving it — the
// cold-restart latency cliff measured in the ROADMAP. Concurrent
// solves during the dump land in the snapshot or not depending on
// timing; either way the snapshot is consistent.
func (s *Service) SaveCache(w io.Writer) (int, error) {
	snap := cacheSnapshot{Version: cacheSnapshotVersion, Entries: s.solves.Dump()}
	if err := json.NewEncoder(w).Encode(snap); err != nil {
		return 0, err
	}
	return len(snap.Entries), nil
}

// LoadCache seeds the solve cache from a SaveCache snapshot and
// returns the number of entries read. Recency order is preserved, so
// a snapshot larger than the cache bound keeps the most recently used
// entries. Entries whose keys are already cached are overwritten.
func (s *Service) LoadCache(r io.Reader) (int, error) {
	var snap cacheSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return 0, fmt.Errorf("decoding cache snapshot: %w", err)
	}
	if snap.Version != cacheSnapshotVersion {
		return 0, fmt.Errorf("unsupported cache snapshot version %d (want %d)", snap.Version, cacheSnapshotVersion)
	}
	s.solves.Seed(snap.Entries)
	return len(snap.Entries), nil
}

// Solve evaluates one design point through the solve cache: an LRU
// hit returns immediately, a miss coalesces with any concurrent
// identical request, and exactly one evaluation runs per canonical
// key. An expired ctx returns context.DeadlineExceeded while the
// evaluation (if this request started one) completes in the
// background and still populates the cache. Invalid requests return a
// *Error; infeasible points are successful responses with
// Outcome.OK == false.
func (s *Service) Solve(ctx context.Context, req SolveRequest) (*SolveResponse, error) {
	norm, aerr := req.normalized()
	if aerr != nil {
		return nil, aerr
	}
	type result struct {
		out sweep.Outcome
		src cache.Source
		err error
	}
	ch := make(chan result, 1)
	go func() {
		out, src, err := s.solves.Do(ctx, norm.key(), func() (sweep.Outcome, error) {
			return s.evalFn(norm.point(), norm.Method), nil
		})
		ch <- result{out, src, err}
	}()
	select {
	case res := <-ch:
		if res.err != nil {
			return nil, res.err
		}
		switch res.src {
		case cache.SourceHit:
			s.m.cacheHits.Inc()
		case cache.SourceShared:
			s.m.cacheCoalesced.Inc()
		default:
			s.m.cacheMisses.Inc()
		}
		return &SolveResponse{Point: norm.point(), Outcome: res.out, Source: res.src.String()}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Design synchronously sweeps a small grid on the shared evaluator
// and ranks the feasible points by GFLOPS descending (ties break
// toward the lower grid index). ctx cancels the sweep between points;
// grids above Config.MaxDesignPoints are rejected with a 400 *Error.
func (s *Service) Design(ctx context.Context, req DesignRequest) (*DesignResponse, error) {
	if err := req.validate(s.cfg.MaxDesignPoints); err != nil {
		return nil, err
	}
	top := req.Top
	if top <= 0 {
		top = 1
	}
	if top > 100 {
		top = 100
	}
	opts := sweep.Options{Workers: req.Workers, Evaluator: s.eval}
	var res *sweep.Result
	var err error
	if req.Screen {
		res, err = s.runScreened(ctx, req.Grid, sweep.ScreenOptions{Options: opts, RefineMargin: req.RefineMargin})
	} else {
		res, err = sweep.Run(ctx, req.Grid, opts)
	}
	if err != nil {
		return nil, err
	}
	feasible := make([]int, 0, len(res.Outcomes))
	for i := range res.Outcomes {
		if res.Outcomes[i].OK {
			feasible = append(feasible, i)
		}
	}
	sort.SliceStable(feasible, func(a, b int) bool {
		oa, ob := res.Outcomes[feasible[a]], res.Outcomes[feasible[b]]
		if oa.GFLOPS != ob.GFLOPS {
			return oa.GFLOPS > ob.GFLOPS
		}
		return feasible[a] < feasible[b]
	})
	resp := &DesignResponse{Points: len(res.Points), Feasible: len(feasible), Screen: res.Screen, Stats: res.Stats}
	if top > len(feasible) {
		top = len(feasible)
	}
	resp.Best = make([]RankedPoint, top)
	for r := 0; r < top; r++ {
		i := feasible[r]
		resp.Best[r] = RankedPoint{Rank: r + 1, Point: res.Points[i], Outcome: res.Outcomes[i]}
	}
	return resp, nil
}

// SubmitSweep validates and enqueues an asynchronous sweep job,
// returning its initial JobRunning snapshot. The sweep runs in the
// background under the service's lifetime context (not the
// submitting request's), sharing the memoized evaluator. Submissions
// beyond Config.MaxRunningJobs are rejected with a 429 *Error.
func (s *Service) SubmitSweep(req SweepRequest) (*JobResponse, error) {
	if err := req.validate(s.cfg.MaxSweepPoints); err != nil {
		return nil, err
	}
	job, aerr := s.jobs.submit(req.Grid)
	if aerr != nil {
		return nil, aerr
	}
	s.m.jobsSubmitted.Inc()
	go func() {
		workers := req.Workers
		if workers <= 0 {
			workers = s.cfg.SweepWorkers
		}
		opts := sweep.Options{Workers: workers, Evaluator: s.eval}
		var res *sweep.Result
		var err error
		if req.Screen {
			res, err = s.runScreened(s.baseCtx, req.Grid, sweep.ScreenOptions{Options: opts, RefineMargin: req.RefineMargin})
		} else {
			res, err = s.runSweep(s.baseCtx, req.Grid, opts)
		}
		s.jobs.finish(job.Job, res, err)
	}()
	return job, nil
}

// validate rejects a /v1/design body as a 400 *Error: an invalid grid,
// one over maxPoints, or screening parameters that cannot mean
// anything. It evaluates no point.
func (req DesignRequest) validate(maxPoints int) *Error {
	if err := req.Grid.Validate(); err != nil {
		return badRequest("%v", err)
	}
	if n := req.Grid.NumPoints(); n > maxPoints {
		return badRequest("grid has %d points, /v1/design allows %d; submit large grids to /v1/sweep", n, maxPoints)
	}
	return validateScreen(req.Screen, req.RefineMargin)
}

// validate rejects a /v1/sweep body as a 400 *Error: an invalid grid,
// screening parameters that cannot mean anything, or a grid over
// maxPoints. It evaluates no point.
func (req SweepRequest) validate(maxPoints int) *Error {
	if err := req.Grid.Validate(); err != nil {
		return badRequest("%v", err)
	}
	if err := validateScreen(req.Screen, req.RefineMargin); err != nil {
		return err
	}
	if n := req.Grid.NumPoints(); n > maxPoints {
		return badRequest("grid has %d points, /v1/sweep allows %d", n, maxPoints)
	}
	return nil
}

// validateScreen rejects screening parameters that cannot mean
// anything: a margin without screening, or a negative margin.
func validateScreen(screen bool, margin float64) *Error {
	if margin != 0 && !screen {
		return badRequest("refine_margin only applies with screen=true")
	}
	if margin < 0 {
		return badRequest("refine_margin must be >= 0, got %g", margin)
	}
	return nil
}

// Job returns a job's current snapshot, or a 404 *Error for an
// unknown id.
func (s *Service) Job(id string) (*JobResponse, error) {
	job, ok := s.jobs.get(id)
	if !ok {
		return nil, &Error{Status: http.StatusNotFound, Code: CodeNotFound, Message: "unknown job " + id}
	}
	return job, nil
}
