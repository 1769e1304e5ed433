package sweep

import (
	"fmt"
	"os"
	"path/filepath"

	"codesign/internal/trace"
)

// ArchiveFrontierSpans re-simulates every Pareto-optimal point of a
// completed sweep with a span recorder attached and persists each span
// stream as JSONL (trace.WriteSpans) under dir, one
// "point-<index>.spans" file per frontier point. The files are
// tracediff inputs: any two frontier designs — or a frontier design
// and a later regression — can be diffed without re-running the sweep.
//
// Points are re-evaluated with the full simulation regardless of the
// sweep's method, so a model-method sweep still archives measured
// traces. Frontier points that fail to simulate (a model-feasible
// point the simulator rejects) are skipped with their error recorded;
// the returned paths list the files actually written, in Index order.
func ArchiveFrontierSpans(res *Result, dir string) ([]string, error) {
	if len(res.ParetoIndices) == 0 {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ev := newEvaluator(0)
	var paths []string
	var firstErr error
	for _, idx := range res.ParetoIndices {
		pt := res.Points[idx]
		rec, makespan, err := ev.record(pt)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("point %d: %w", pt.Index, err)
			}
			continue
		}
		path := filepath.Join(dir, fmt.Sprintf("point-%04d.spans", pt.Index))
		meta := trace.Meta{
			App:      pt.App,
			Machine:  pt.Machine,
			Label:    pointLabel(pt),
			Makespan: makespan,
		}
		f, err := os.Create(path)
		if err != nil {
			return paths, err
		}
		if err := rec.WriteSpans(f, meta); err != nil {
			f.Close()
			return paths, err
		}
		if err := f.Close(); err != nil {
			return paths, err
		}
		paths = append(paths, path)
	}
	if len(paths) == 0 && firstErr != nil {
		return nil, firstErr
	}
	return paths, nil
}

// record re-simulates one grid point with a recorder attached, on the
// MethodSim evaluation path (same sentinel resolution, same run).
func (ev *evaluator) record(pt Point) (*trace.Recorder, float64, error) {
	r, err := ev.resolve(pt, new(Stats))
	if err != nil {
		return nil, 0, err
	}
	rec := trace.NewRecorder()
	res, err := r.simulate(rec)
	if err != nil {
		return nil, 0, err
	}
	return rec, res.Seconds, nil
}

// pointLabel names an archived point deterministically from its
// coordinate so diff reports identify both sides.
func pointLabel(pt Point) string {
	return fmt.Sprintf("point %d: %s %s n=%d b=%d pes=%d mode=%s",
		pt.Index, pt.App, pt.Machine, pt.N, pt.B, pt.PEs, pt.Mode)
}
