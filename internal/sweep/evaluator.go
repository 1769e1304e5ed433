package sweep

import "fmt"

// Evaluator is the memoized point-evaluation engine behind Run,
// exported so long-running callers — chiefly the codesignd serve
// layer — can keep one alive across many queries and sweeps, sharing
// its place-and-route and partition-solve caches. A nil *Evaluator is
// never valid; construct with NewEvaluator. All methods are safe for
// concurrent use.
type Evaluator struct {
	ev *evaluator
}

// NewEvaluator returns an evaluator whose two memo caches (pseudo
// place-and-route solutions and Eq. 1/4/5/6 partition solves) each
// hold at most bound entries, evicting least-recently-used entries
// beyond it (bound <= 0 = unbounded, the behavior of a plain sweep).
// Eviction never changes results — the solves are deterministic — it
// only costs a recompute.
func NewEvaluator(bound int) *Evaluator {
	return &Evaluator{ev: newEvaluator(bound)}
}

// Evaluate evaluates one fully-specified design point under the given
// method (MethodModel or MethodSim; "" = MethodModel). Unknown apps,
// modes or methods come back as infeasible Outcomes, and a panic from
// a degenerate coordinate is converted the same way safeEvaluate does
// for Run — a bad query must never take down a serving process.
func (e *Evaluator) Evaluate(pt Point, method string) Outcome {
	if method == "" {
		method = MethodModel
	}
	if method != MethodModel && method != MethodSim {
		return fail(fmt.Errorf("unknown method %q (want %q or %q)", method, MethodModel, MethodSim))
	}
	if _, err := lookup(pt.App); err != nil {
		return fail(err)
	}
	if !contains(knownModes, pt.Mode) {
		return fail(fmt.Errorf("unknown mode %q (want one of hybrid, processor-only, fpga-only)", pt.Mode))
	}
	return safeEvaluate(func() Outcome { return e.ev.evaluate(pt, method, new(Stats)) })
}

// Stats returns the evaluator's cumulative memo-cache traffic since
// construction. For the per-run view, Run reports the delta it
// observed in its Result.
func (e *Evaluator) Stats() Stats {
	return e.ev.statsDelta(Stats{})
}
