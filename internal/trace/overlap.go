package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"codesign/internal/sim"
)

// Overlap decomposes a run into the model's cost components. The Busy*
// fields sum span durations per class and can exceed the makespan when
// activities overlap (that is the point of the hybrid design). The
// exposed components attribute every instant of the run to exactly one
// class by priority — FPGA compute > CPU compute > DRAM > network >
// sync wait > idle — so
//
//	Tf + Tp + Tmem + Tcomm + Sync + Idle == Makespan
//
// holds exactly. An instant where the network is busy but a processor
// is also computing charges to Tp, not Tcomm: the communication was
// hidden, which is what Eqs. (4)-(6) of the paper balance for and what
// the Sec. 4.5 prediction max(Ttp, Ttf) assumes is perfect.
type Overlap struct {
	// Makespan is the accounting window: the run's final virtual time.
	Makespan float64

	// Total busy seconds per class, summed across all processes and
	// resources (overlapping spans double-count here by design).
	BusyTf, BusyTp, BusyTmem, BusyTcomm, BusySync float64

	// Exposed seconds per class: the priority attribution above.
	Tf, Tp, Tmem, Tcomm, Sync, Idle float64
}

// Sum returns the exposed model components Tf + Tp + Tmem + Tcomm.
// When the instrumented run leaves no uncategorized gaps this equals
// the makespan up to Sync + Idle.
func (o Overlap) Sum() float64 { return o.Tf + o.Tp + o.Tmem + o.Tcomm }

// Efficiency reports how well data movement was hidden behind compute:
// 1 - exposed(Tmem+Tcomm)/busy(Tmem+Tcomm). 1 means every byte moved
// while some processor or FPGA was computing; 0 means nothing
// overlapped. Returns 1 when the run moved no data.
func (o Overlap) Efficiency() float64 {
	busy := o.BusyTmem + o.BusyTcomm
	if busy <= 0 {
		return 1
	}
	return 1 - (o.Tmem+o.Tcomm)/busy
}

// SpanClass is a span's overlap class: which of the model's cost terms
// its duration counts toward. Values are ordered by attribution
// priority (lower wins when classes overlap in time).
type SpanClass int

// The overlap classes, in attribution priority order.
const (
	ClassTf SpanClass = iota
	ClassTp
	ClassTmem
	ClassTcomm
	ClassSync
	NumSpanClasses
)

// String names the class as the model writes it ("Tf", "Tp", ...).
func (c SpanClass) String() string {
	switch c {
	case ClassTf:
		return "Tf"
	case ClassTp:
		return "Tp"
	case ClassTmem:
		return "Tmem"
	case ClassTcomm:
		return "Tcomm"
	case ClassSync:
		return "sync"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Classify maps a typed span to its overlap class. Compute spans are
// FPGA time (Tf) when the span's device tag says DeviceFPGA and
// processor time (Tp) otherwise; spans from emitters predating the
// device tag (DeviceUnknown) fall back to the resource-name convention
// of the built-in machines, where FPGA arrays are named "fpga...".
func Classify(s sim.SpanEvent) SpanClass {
	switch s.Category {
	case sim.CatCompute:
		switch s.Device {
		case sim.DeviceFPGA:
			return ClassTf
		case sim.DeviceUnknown:
			if strings.HasPrefix(s.Resource, "fpga") {
				return ClassTf
			}
		}
		return ClassTp
	case sim.CatDMA:
		return ClassTmem
	case sim.CatNetwork:
		return ClassTcomm
	default:
		return ClassSync
	}
}

// ProcStats summarizes one process's activity.
type ProcStats struct {
	// Name is the process name.
	Name string
	// Busy is seconds in compute/DMA/network spans.
	Busy float64
	// Waiting is seconds queued on contended resources.
	Waiting float64
	// Bytes is payload bytes its spans carried.
	Bytes int64
}

// Utilization returns Busy / makespan.
func (p ProcStats) Utilization(makespan float64) float64 {
	if makespan <= 0 {
		return 0
	}
	return p.Busy / makespan
}

// ResourceStats summarizes one resource's activity as seen by spans.
type ResourceStats struct {
	// Name is the resource name.
	Name string
	// Busy is seconds held by typed spans.
	Busy float64
	// Contention is seconds processes spent queued on it.
	Contention float64
	// Spans counts the spans that named the resource.
	Spans int64
	// Bytes is payload bytes those spans carried.
	Bytes int64
}

// Summary is the per-run telemetry digest attached to application
// results and printed by the CLIs. All fields derive from virtual time.
type Summary struct {
	// Makespan is the run's final virtual time.
	Makespan float64
	// Spans is the number of typed spans the run emitted.
	Spans int
	// Events is the number of raw engine events (resume/block).
	Events int

	// DRAMBytes counts payload on DMA spans; NetworkBytes counts
	// payload on network wire spans. Instrumentation attaches bytes
	// only to the span that moves them (wire or DMA stream), never to
	// processor-side pack/unpack, so these do not double count.
	DRAMBytes int64
	// NetworkBytes counts payload on network wire spans (see DRAMBytes).
	NetworkBytes int64

	// Procs holds per-process stats, sorted by name.
	Procs []ProcStats
	// Resources holds per-resource stats, sorted by name.
	Resources []ResourceStats
	// Overlap is the run's overlap decomposition.
	Overlap Overlap
}

// WriteCSV writes the summary as RFC-4180 CSV rows
// "kind,name,key,value" (the hybridsim -metrics-out format): the
// counters, then every gauge, each group sorted by name. The key
// column is always empty and values use the shortest 'g' formatting,
// so identical runs export identical bytes.
func (s *Summary) WriteCSV(w io.Writer) error {
	counters := map[string]float64{
		"run.spans":     float64(s.Spans),
		"run.events":    float64(s.Events),
		"bytes.dram":    float64(s.DRAMBytes),
		"bytes.network": float64(s.NetworkBytes),
	}
	gauges := map[string]float64{
		"run.makespan_s":          s.Makespan,
		"overlap.exposed.tf_s":    s.Overlap.Tf,
		"overlap.exposed.tp_s":    s.Overlap.Tp,
		"overlap.exposed.tmem_s":  s.Overlap.Tmem,
		"overlap.exposed.tcomm_s": s.Overlap.Tcomm,
		"overlap.exposed.sync_s":  s.Overlap.Sync,
		"overlap.exposed.idle_s":  s.Overlap.Idle,
		"overlap.busy.tf_s":       s.Overlap.BusyTf,
		"overlap.busy.tp_s":       s.Overlap.BusyTp,
		"overlap.busy.tmem_s":     s.Overlap.BusyTmem,
		"overlap.busy.tcomm_s":    s.Overlap.BusyTcomm,
		"overlap.efficiency":      s.Overlap.Efficiency(),
	}
	for _, p := range s.Procs {
		gauges["proc."+p.Name+".busy_s"] = p.Busy
		gauges["proc."+p.Name+".wait_s"] = p.Waiting
	}
	for _, r := range s.Resources {
		gauges["resource."+r.Name+".busy_s"] = r.Busy
		gauges["resource."+r.Name+".contention_s"] = r.Contention
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "name", "key", "value"}); err != nil {
		return err
	}
	for _, g := range []struct {
		kind string
		vals map[string]float64
	}{{"counter", counters}, {"gauge", gauges}} {
		for _, k := range sortedKeys(g.vals) {
			v := strconv.FormatFloat(g.vals[k], 'g', -1, 64)
			if err := cw.Write([]string{g.kind, k, "", v}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteReport renders the human-readable overlap report the -metrics
// flag prints.
func (s *Summary) WriteReport(w io.Writer) error {
	o := s.Overlap
	pct := func(v float64) float64 {
		if s.Makespan <= 0 {
			return 0
		}
		return 100 * v / s.Makespan
	}
	lines := []string{
		fmt.Sprintf("overlap report (makespan %.6g s, %d spans)", s.Makespan, s.Spans),
		fmt.Sprintf("  exposed Tf    %12.6g s  (%5.1f%%)  busy %.6g s", o.Tf, pct(o.Tf), o.BusyTf),
		fmt.Sprintf("  exposed Tp    %12.6g s  (%5.1f%%)  busy %.6g s", o.Tp, pct(o.Tp), o.BusyTp),
		fmt.Sprintf("  exposed Tmem  %12.6g s  (%5.1f%%)  busy %.6g s", o.Tmem, pct(o.Tmem), o.BusyTmem),
		fmt.Sprintf("  exposed Tcomm %12.6g s  (%5.1f%%)  busy %.6g s", o.Tcomm, pct(o.Tcomm), o.BusyTcomm),
		fmt.Sprintf("  exposed sync  %12.6g s  (%5.1f%%)", o.Sync, pct(o.Sync)),
		fmt.Sprintf("  exposed idle  %12.6g s  (%5.1f%%)", o.Idle, pct(o.Idle)),
		fmt.Sprintf("  Tf+Tp+Tmem+Tcomm = %.6g s", o.Sum()),
		fmt.Sprintf("  overlap efficiency: %.4f (fraction of data movement hidden behind compute)", o.Efficiency()),
		fmt.Sprintf("  bytes: DRAM %d, network %d", s.DRAMBytes, s.NetworkBytes),
	}
	for _, ln := range lines {
		if _, err := fmt.Fprintln(w, ln); err != nil {
			return err
		}
	}
	if len(s.Resources) > 0 {
		if _, err := fmt.Fprintln(w, "  top contended resources:"); err != nil {
			return err
		}
		top := make([]ResourceStats, len(s.Resources))
		copy(top, s.Resources)
		sort.Slice(top, func(i, j int) bool {
			if top[i].Contention != top[j].Contention {
				return top[i].Contention > top[j].Contention
			}
			return top[i].Name < top[j].Name
		})
		if len(top) > 5 {
			top = top[:5]
		}
		for _, r := range top {
			if _, err := fmt.Fprintf(w, "    %-14s busy %.6g s, contention %.6g s, %d spans\n",
				r.Name, r.Busy, r.Contention, r.Spans); err != nil {
				return err
			}
		}
	}
	return nil
}
