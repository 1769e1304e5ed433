package analysis

import (
	"fmt"
	"io"
	"strings"

	"codesign/internal/model"
	"codesign/internal/sim"
)

// DefaultBins is the timeline bin count Analyze uses when Options.Bins
// is zero; it matches the width of the report's utilization strips.
const DefaultBins = 60

// maxReportHops caps how many critical-path hops WriteReport prints
// before eliding the middle of the path (the full path is always in
// Report.CriticalPath).
const maxReportHops = 40

// Options tunes Analyze.
type Options struct {
	// Bins is the number of timeline bins (DefaultBins when 0).
	Bins int
	// Expected maps phase label to the analytic model's predicted
	// binding parameter, for the classifier's agreement check.
	Expected map[string]model.Binding
}

// Report is the full attribution of one run.
type Report struct {
	// Makespan is the run's virtual finish time in seconds.
	Makespan float64

	// CriticalPath is the chain of hops whose durations partition
	// [0, makespan]; CriticalPathTotal is their sum (equal to Makespan
	// up to float summation order).
	CriticalPath []Hop
	// CriticalPathTotal is the summed duration of CriticalPath.
	CriticalPathTotal float64

	// Phases is the per-phase busy-time breakdown and bottleneck
	// classification, ordered by first span start.
	Phases []PhaseStats
	// Timelines is the per-resource binned activity, ordered by name.
	Timelines []ResourceTimeline
}

// Analyze runs the critical-path extractor, the bottleneck classifier
// and the timeline binner over one run's span stream.
func Analyze(spans []sim.SpanEvent, makespan float64, opts Options) *Report {
	bins := opts.Bins
	if bins <= 0 {
		bins = DefaultBins
	}
	r := &Report{Makespan: makespan}
	r.CriticalPath = ExtractCriticalPath(spans, makespan)
	r.CriticalPathTotal = PathTotal(r.CriticalPath)
	r.Phases = ClassifyPhases(spans, opts.Expected)
	r.Timelines = BuildTimelines(spans, makespan, bins)
	return r
}

// WriteReport renders the human-readable analysis the -analyze flag
// prints: the critical path (middle elided past maxReportHops), the
// per-phase bottleneck table, and per-resource utilization strips.
func (r *Report) WriteReport(w io.Writer) error {
	pct := func(v float64) float64 {
		if r.Makespan <= 0 {
			return 0
		}
		return 100 * v / r.Makespan
	}
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}

	if err := p("critical path (%d hops, total %.6g s of %.6g s makespan)\n",
		len(r.CriticalPath), r.CriticalPathTotal, r.Makespan); err != nil {
		return err
	}
	hopLine := func(h Hop) error {
		if h.Category == sim.CatIdle {
			return p("  %12.6g..%-12.6g %9.6g s %5.1f%%  (idle)\n",
				h.Start, h.End, h.Duration(), pct(h.Duration()))
		}
		return p("  %12.6g..%-12.6g %9.6g s %5.1f%%  %-8s %-10s %-14s %s\n",
			h.Start, h.End, h.Duration(), pct(h.Duration()),
			h.Category, h.Proc, h.Resource, h.Phase)
	}
	hops := r.CriticalPath
	if len(hops) <= maxReportHops {
		for _, h := range hops {
			if err := hopLine(h); err != nil {
				return err
			}
		}
	} else {
		head := maxReportHops / 2
		tail := maxReportHops - head
		for _, h := range hops[:head] {
			if err := hopLine(h); err != nil {
				return err
			}
		}
		var elided float64
		for _, h := range hops[head : len(hops)-tail] {
			elided += h.Duration()
		}
		if err := p("  ... %d hops elided (%.6g s, %.1f%%) ...\n",
			len(hops)-maxReportHops, elided, pct(elided)); err != nil {
			return err
		}
		for _, h := range hops[len(hops)-tail:] {
			if err := hopLine(h); err != nil {
				return err
			}
		}
	}

	if len(r.Phases) > 0 {
		if err := p("\nbottleneck attribution per phase (busy seconds; binding per Eq. 4-6 comparison)\n"); err != nil {
			return err
		}
		if err := p("  %-12s %12s %12s %12s %12s  %-7s %-7s %-9s %s\n",
			"phase", "Tf", "Tp", "Tmem", "Tcomm", "margin", "binds", "expected", "agree"); err != nil {
			return err
		}
		for _, ps := range r.Phases {
			name := ps.Phase
			if name == "" {
				name = "(none)"
			}
			expect, agree := "-", "-"
			if ps.Expected != model.BindNone {
				expect = ps.Expected.String()
				if ps.Agree {
					agree = "yes"
				} else {
					agree = "NO"
				}
			}
			if err := p("  %-12s %12.6g %12.6g %12.6g %12.6g  %6.1f%% %-7s %-9s %s\n",
				name, ps.BusyTf, ps.BusyTp, ps.BusyTmem, ps.BusyTcomm,
				100*ps.Margin, ps.Binding, expect, agree); err != nil {
				return err
			}
		}
	}

	if len(r.Timelines) > 0 {
		if err := p("\nresource utilization (each column %.6g s; ' ' idle, '.' <25%%, ':' <50%%, '+' <75%%, '#' busy)\n",
			r.Makespan/float64(maxBins(r.Timelines))); err != nil {
			return err
		}
		for _, rt := range r.Timelines {
			if err := p("  %-14s %-5s %5.1f%% |%s|\n",
				rt.Name, rt.Device, 100*rt.Utilization(), strip(rt.Bins)); err != nil {
				return err
			}
		}
	}
	return nil
}

func maxBins(ts []ResourceTimeline) int {
	n := 1
	for _, t := range ts {
		if len(t.Bins) > n {
			n = len(t.Bins)
		}
	}
	return n
}

// strip renders bin fractions as a fixed-alphabet utilization strip.
func strip(bins []float64) string {
	var b strings.Builder
	for _, f := range bins {
		switch {
		case f <= 0:
			b.WriteByte(' ')
		case f < 0.25:
			b.WriteByte('.')
		case f < 0.5:
			b.WriteByte(':')
		case f < 0.75:
			b.WriteByte('+')
		default:
			b.WriteByte('#')
		}
	}
	return b.String()
}
