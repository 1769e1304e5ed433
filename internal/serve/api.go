package serve

import (
	"fmt"
	"net/http"

	"codesign/internal/sweep"
)

// Machine-readable error codes carried in the error envelope. Each
// maps to exactly one HTTP status so clients can switch on either.
const (
	// CodeBadRequest (400) marks a malformed or invalid request body,
	// unknown field, or out-of-range parameter.
	CodeBadRequest = "bad_request"
	// CodeNotFound (404) marks an unknown job id or API path.
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed (405) marks the wrong HTTP method for a
	// known path; the Allow header names the right one.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeOverloaded (429) marks load shedding: the admission queue or
	// the running-jobs limit is full. The response carries a
	// Retry-After header.
	CodeOverloaded = "overloaded"
	// CodeDeadlineExceeded (504) marks a request whose deadline
	// expired before its evaluation finished. The evaluation keeps
	// running and populates the cache, so a retry is usually a hit.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeInternal (500) marks an unexpected server-side failure.
	CodeInternal = "internal"
)

// Error is a typed serve-layer failure: the HTTP status it maps to, a
// machine-readable code, and a human-readable message. It is both the
// wire format (inside ErrorResponse) and the error value Service
// methods return for request-level failures.
type Error struct {
	// Status is the HTTP status the error maps to (not serialized; the
	// response status line already carries it).
	Status int `json:"-"`
	// Code is the machine-readable error code (one of the Code*
	// constants).
	Code string `json:"code"`
	// Message describes the failure for humans.
	Message string `json:"message"`
}

// Error formats the failure as "code: message".
func (e *Error) Error() string { return e.Code + ": " + e.Message }

// ErrorResponse is the JSON envelope of every non-2xx API response:
// {"error": {"code": "...", "message": "..."}}.
type ErrorResponse struct {
	// Error carries the code and message.
	Error *Error `json:"error"`
}

// badRequest builds a 400 Error.
func badRequest(format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Code: CodeBadRequest, Message: fmt.Sprintf(format, args...)}
}

// SolveRequest is the body of POST /v1/solve: one design-space
// coordinate. Every field is optional; the zero request is the
// paper's headline configuration (hybrid LU on one XD1 chassis at
// n=30000, b=3000, solved partition). Zero in Nodes/N/B/PEs means
// "the preset or app default"; a null/absent BF or L means "solve the
// model equation" (the -1 sentinel of internal/sweep).
type SolveRequest struct {
	// App is the application, one of sweep.Apps: "lu" (default),
	// "fw", "mm", "spmv", "chol" or "qr".
	App string `json:"app,omitempty"`
	// Machine is the machine preset: "xd1" (default), "xt3", "src6",
	// "rasc".
	Machine string `json:"machine,omitempty"`
	// Mode is the design variant: "hybrid" (default),
	// "processor-only", "fpga-only".
	Mode string `json:"mode,omitempty"`
	// Nodes overrides the preset node count p (0 = preset default).
	Nodes int `json:"nodes,omitempty"`
	// N is the problem size (0 = the app's paper size).
	N int `json:"n,omitempty"`
	// Density is the spmv operator nonzero density in [0,1] (0 = dense
	// operator; ignored by the dense apps).
	Density float64 `json:"density,omitempty"`
	// B is the block size (0 = the app's paper block size).
	B int `json:"b,omitempty"`
	// PEs is the FPGA PE-array size (0 = largest that fits).
	PEs int `json:"pes,omitempty"`
	// BF is the FPGA row share for LU/MM stripes; null or -1 solves
	// Equation 4 / Equation 1.
	BF *int `json:"bf,omitempty"`
	// L is the LU pipeline depth or FW per-phase processor share l1;
	// null or -1 solves Equation 5 / Equation 6.
	L *int `json:"l,omitempty"`
	// Method selects the evaluator: "model" (default, microseconds per
	// query) or "sim" (full discrete-event simulation, seconds —
	// budget the request deadline accordingly).
	Method string `json:"method,omitempty"`
}

// normalized returns the request with defaults applied (named fields
// filled, BF/L pointers resolved to concrete sentinel values) or a
// 400 Error for invalid values. The normalized form is what key(),
// point() and the response echo operate on.
func (q SolveRequest) normalized() (SolveRequest, *Error) {
	if q.App == "" {
		q.App = "lu"
	}
	if q.Machine == "" {
		q.Machine = "xd1"
	}
	if q.Mode == "" {
		q.Mode = "hybrid"
	}
	if q.Method == "" {
		q.Method = sweep.MethodModel
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"nodes", q.Nodes}, {"n", q.N}, {"b", q.B}, {"pes", q.PEs}} {
		if f.v < 0 {
			return q, badRequest("%s must be >= 0 (0 = default), got %d", f.name, f.v)
		}
	}
	bf, l := -1, -1
	if q.BF != nil {
		bf = *q.BF
	}
	if q.L != nil {
		l = *q.L
	}
	if bf < -1 {
		return q, badRequest("bf must be >= -1 (-1 or null = solve Eq. 4 / Eq. 1), got %d", bf)
	}
	if l < -1 {
		return q, badRequest("l must be >= -1 (-1 or null = solve Eq. 5 / Eq. 6), got %d", l)
	}
	q.BF, q.L = &bf, &l
	// -0 evaluates as 0 but would key, and encode under omitempty,
	// differently; fold it so both spellings share one cache entry.
	if q.Density == 0 {
		q.Density = 0
	}
	// One-value grid validation covers app, machine, mode and method
	// with internal/sweep's own error messages.
	g := sweep.Grid{Apps: []string{q.App}, Machines: []string{q.Machine}, Modes: []string{q.Mode},
		Density: []float64{q.Density}, Method: q.Method}
	if err := g.Validate(); err != nil {
		return q, badRequest("%v", err)
	}
	return q, nil
}

// key returns the canonical solve-cache key of a normalized request:
// every field in fixed order, sentinels preserved. Two requests that
// spell the same defaults differently (n=0 vs n absent) share a key;
// a sentinel and its resolved value (n=0 vs n=30000 for LU) do not —
// both are deterministic, the second solve just costs one more cache
// entry.
func (q SolveRequest) key() string {
	return fmt.Sprintf("%s|%s|%s|%s|%d|%d|%g|%d|%d|%d|%d",
		q.App, q.Machine, q.Mode, q.Method, q.Nodes, q.N, q.Density, q.B, q.PEs, *q.BF, *q.L)
}

// point converts a normalized request to the sweep coordinate it
// evaluates.
func (q SolveRequest) point() sweep.Point {
	return sweep.Point{
		App: q.App, Machine: q.Machine, Mode: q.Mode,
		Nodes: q.Nodes, N: q.N, Density: q.Density, B: q.B, PEs: q.PEs, BF: *q.BF, L: *q.L,
	}
}

// SolveResponse is the body of a successful POST /v1/solve: the
// evaluated coordinate (sentinels preserved; the outcome records the
// resolved partition), its outcome, and how the lookup was satisfied.
// An infeasible point is still a 200: outcome.ok is false and
// outcome.err says why — infeasibility is an answer, not a failure.
type SolveResponse struct {
	// Point echoes the normalized request as a sweep coordinate.
	Point sweep.Point `json:"point"`
	// Outcome is the evaluation (model prediction or simulation
	// measurement, resolved partition, resource usage, binding).
	Outcome sweep.Outcome `json:"outcome"`
	// Source says how the lookup was satisfied: "cache" (LRU hit),
	// "coalesced" (shared a concurrent identical request's
	// evaluation), or "computed" (this request ran the evaluation).
	Source string `json:"source"`
}

// DesignRequest is the body of POST /v1/design: a declarative grid to
// search synchronously for the best designs. Grids are capped at
// Config.MaxDesignPoints; larger searches belong on POST /v1/sweep.
type DesignRequest struct {
	// Grid is the design space to search (internal/sweep's declarative
	// grid; empty axes take paper defaults).
	Grid sweep.Grid `json:"grid"`
	// Top is how many best designs to return, ranked by GFLOPS
	// descending (default 1, capped at 100).
	Top int `json:"top,omitempty"`
	// Workers bounds the evaluation pool (0 = one per CPU).
	Workers int `json:"workers,omitempty"`
	// Screen enables the two-stage pipeline: model-screen the full
	// grid, then evaluate only Pareto candidates under the grid's
	// method. The ranking then covers the refined subset — the designs
	// top-k search cares about — at a fraction of a sim-mode grid's
	// cost.
	Screen bool `json:"screen,omitempty"`
	// RefineMargin is the screening dominance band (0 with Screen =
	// sweep.DefaultRefineMargin; invalid without Screen).
	RefineMargin float64 `json:"refine_margin,omitempty"`
}

// RankedPoint is one entry of a design search's ranking.
type RankedPoint struct {
	// Rank is the 1-based position (1 = highest GFLOPS; ties break
	// toward the lower grid index, so rankings are deterministic).
	Rank int `json:"rank"`
	// Point is the design-space coordinate.
	Point sweep.Point `json:"point"`
	// Outcome is its evaluation.
	Outcome sweep.Outcome `json:"outcome"`
}

// DesignResponse is the body of a successful POST /v1/design.
type DesignResponse struct {
	// Points is the grid size that was searched.
	Points int `json:"points"`
	// Feasible counts the points that evaluated OK.
	Feasible int `json:"feasible"`
	// Screen summarizes the screening pass of a Screen=true search
	// (nil otherwise); Points then counts the refined subset.
	Screen *sweep.ScreenSummary `json:"screen,omitempty"`
	// Best ranks the top feasible designs by GFLOPS descending; empty
	// when the whole grid is infeasible.
	Best []RankedPoint `json:"best"`
	// Stats reports the search's evaluator traffic (memo hits show up
	// as lookups exceeding solves).
	Stats sweep.Stats `json:"stats"`
}

// SweepRequest is the body of POST /v1/sweep: an asynchronous sweep
// job over a grid of up to Config.MaxSweepPoints points.
type SweepRequest struct {
	// Grid is the design space to sweep.
	Grid sweep.Grid `json:"grid"`
	// Workers bounds the evaluation pool (0 = one per CPU).
	Workers int `json:"workers,omitempty"`
	// Screen enables the two-stage pipeline (see
	// DesignRequest.Screen); the job's Result then covers the refined
	// subset and carries a ScreenSummary.
	Screen bool `json:"screen,omitempty"`
	// RefineMargin is the screening dominance band (0 with Screen =
	// sweep.DefaultRefineMargin; invalid without Screen).
	RefineMargin float64 `json:"refine_margin,omitempty"`
}

// Job status values reported by JobResponse.Status.
const (
	// JobRunning means the sweep is still evaluating.
	JobRunning = "running"
	// JobDone means the sweep finished; JobResponse.Result is set.
	JobDone = "done"
	// JobFailed means the sweep stopped early; JobResponse.Error says
	// why (typically server shutdown cancelling the job).
	JobFailed = "failed"
)

// JobResponse describes one sweep job: the 202 body of POST /v1/sweep
// and the 200 body of GET /v1/sweep/{id}.
type JobResponse struct {
	// Job is the job id ("j1", "j2", ... in submission order).
	Job string `json:"job"`
	// Status is JobRunning, JobDone or JobFailed.
	Status string `json:"status"`
	// Points is the grid size being swept.
	Points int `json:"points"`
	// Error says why a JobFailed job stopped.
	Error string `json:"error,omitempty"`
	// Result is the completed sweep (grid, records, Pareto frontier,
	// sensitivity, stats), present only when Status is JobDone.
	Result *sweep.Result `json:"result,omitempty"`
}
