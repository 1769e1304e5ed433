package analysis_test

import (
	"sort"

	"codesign/internal/analysis"
	"codesign/internal/model"
	"codesign/internal/sim"
	"codesign/internal/trace"
)

// The straightforward implementation the digest-backed ClassifyPhases
// replaced. Tests compare against it; nothing else runs it.

// referenceClassifyPhases groups a span slice by phase label through a
// map, then sorts the phases by (start, label).
func referenceClassifyPhases(spans []sim.SpanEvent, expected map[string]model.Binding) []analysis.PhaseStats {
	byPhase := make(map[string]*analysis.PhaseStats)
	var order []string
	var last *analysis.PhaseStats
	for _, s := range spans {
		if s.End <= s.Start && s.Bytes == 0 {
			continue
		}
		ps := last
		if ps == nil || ps.Phase != s.Phase {
			ps = byPhase[s.Phase]
			if ps == nil {
				ps = &analysis.PhaseStats{Phase: s.Phase, Start: s.Start, End: s.End}
				byPhase[s.Phase] = ps
				order = append(order, s.Phase)
			}
			last = ps
		}
		if s.Start < ps.Start {
			ps.Start = s.Start
		}
		if s.End > ps.End {
			ps.End = s.End
		}
		ps.Bytes += s.Bytes
		d := s.End - s.Start
		switch trace.Classify(s) {
		case trace.ClassTf:
			ps.BusyTf += d
		case trace.ClassTp:
			ps.BusyTp += d
		case trace.ClassTmem:
			ps.BusyTmem += d
		case trace.ClassTcomm:
			ps.BusyTcomm += d
		default:
			ps.BusySync += d
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := byPhase[order[i]], byPhase[order[j]]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Phase < b.Phase
	})
	out := make([]analysis.PhaseStats, 0, len(order))
	for _, name := range order {
		ps := byPhase[name]
		ps.Binding, ps.Margin = model.BindingFromTimes(ps.BusyTf, ps.BusyTp, ps.BusyTmem, ps.BusyTcomm)
		ps.Expected = expected[name]
		ps.Agree = ps.Expected == model.BindNone || ps.Expected == ps.Binding
		out = append(out, *ps)
	}
	return out
}
