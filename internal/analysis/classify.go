package analysis

import (
	"sort"

	"codesign/internal/model"
	"codesign/internal/sim"
	"codesign/internal/trace"
)

// PhaseStats aggregates one algorithm phase's activity across all
// processes and attributes it to the model parameter that bound it.
type PhaseStats struct {
	// Phase is the span phase label ("panel", "opmm", ...; spans with
	// no label aggregate under "").
	Phase string

	// Busy seconds per overlap class, summed over all spans in the
	// phase (concurrent activity double counts, as in Overlap's Busy*).
	BusyTf, BusyTp, BusyTmem, BusyTcomm, BusySync float64

	// Bytes is payload carried by the phase's data-movement spans.
	Bytes int64

	// Start and End bound the phase's spans in virtual time. Phases
	// that interleave (panel/opmm pipelining) overlap here.
	Start, End float64

	// Binding is the parameter the measured busy times say bound the
	// phase, with Margin the normalized imbalance (see
	// model.BindingFromTimes). A small margin means the phase was
	// balanced — the partitioning did its job — and the named side won
	// only narrowly.
	Binding model.Binding
	// Margin is the normalized imbalance behind Binding.
	Margin float64

	// Expected is the analytic model's predicted binding for the phase
	// (BindNone when the caller supplied no prediction), and Agree
	// whether measurement matched it.
	Expected model.Binding
	// Agree reports whether Binding matched Expected.
	Agree bool
}

// TotalBusy returns the phase's classified work: Tf+Tp+Tmem+Tcomm.
func (ps PhaseStats) TotalBusy() float64 {
	return ps.BusyTf + ps.BusyTp + ps.BusyTmem + ps.BusyTcomm
}

// ClassifyPhases groups spans by phase label, sums busy time per
// overlap class, and runs the Section 4 binding comparison on each
// phase's totals: it folds the spans into a pooled trace.Digest and
// finishes the digest with DigestPhases. Spans with End <= Start count
// only when they carry bytes.
func ClassifyPhases(spans []sim.SpanEvent, expected map[string]model.Binding) []PhaseStats {
	d := trace.GetDigest()
	defer trace.PutDigest(d)
	for _, s := range spans {
		d.Span(s)
	}
	return DigestPhases(d, expected)
}

// DigestPhases finishes a digest's per-phase totals as PhaseStats: it
// runs the Section 4 binding comparison on each phase's busy times.
// expected maps phase label to the analytic model's predicted binding;
// phases absent from the map get Expected BindNone and Agree true
// (nothing to disagree with). Phases are returned in order of first
// appearance in virtual time (earliest Start, ties by label).
func DigestPhases(d *trace.Digest, expected map[string]model.Binding) []PhaseStats {
	totals := d.Phases()
	out := make([]PhaseStats, len(totals))
	for i, pt := range totals {
		ps := PhaseStats{
			Phase:  pt.Phase,
			BusyTf: pt.Busy[trace.ClassTf], BusyTp: pt.Busy[trace.ClassTp], BusyTmem: pt.Busy[trace.ClassTmem],
			BusyTcomm: pt.Busy[trace.ClassTcomm], BusySync: pt.Busy[trace.ClassSync],
			Bytes: pt.Bytes, Start: pt.Start, End: pt.End,
		}
		ps.Binding, ps.Margin = model.BindingFromTimes(ps.BusyTf, ps.BusyTp, ps.BusyTmem, ps.BusyTcomm)
		ps.Expected = expected[ps.Phase]
		ps.Agree = ps.Expected == model.BindNone || ps.Expected == ps.Binding
		out[i] = ps
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}
