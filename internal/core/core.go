package core

import (
	"fmt"

	"codesign/internal/machine"
	"codesign/internal/sim"
	"codesign/internal/trace"
)

// Mode selects which compute resources a design uses.
type Mode int

// The design variants compared in Figure 9.
const (
	// Hybrid uses both the processor and the FPGA per the design model.
	Hybrid Mode = iota
	// ProcessorOnly is the software baseline (FPGAs idle).
	ProcessorOnly
	// FPGAOnly is the hardware baseline (processors only orchestrate:
	// panel factorizations, communication and DMA remain on the CPU,
	// which cannot be avoided on these systems).
	FPGAOnly
)

// ParseMode maps a mode name (String's output, or the "cpu" and
// "fpga" aliases) to its Mode.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "hybrid":
		return Hybrid, nil
	case "processor-only", "cpu":
		return ProcessorOnly, nil
	case "fpga-only", "fpga":
		return FPGAOnly, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", name)
	}
}

// SolveShare resolves the FPGA's share of total work units under a
// design mode: none under ProcessorOnly, all under FPGAOnly, and under
// Hybrid the configured share, or solve's first result when it is
// negative. A share outside [0, total] is an error naming it.
func SolveShare(mode Mode, name string, share, total int, solve func() (int, int)) (int, error) {
	switch mode {
	case ProcessorOnly:
		share = 0
	case FPGAOnly:
		share = total
	default:
		if share < 0 {
			share, _ = solve()
		}
	}
	if share < 0 || share > total {
		return 0, fmt.Errorf("%s=%d out of [0,%d]", name, share, total)
	}
	return share, nil
}

// String names the mode as ParseMode accepts it.
func (m Mode) String() string {
	switch m {
	case Hybrid:
		return "hybrid"
	case ProcessorOnly:
		return "processor-only"
	case FPGAOnly:
		return "fpga-only"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Result is the outcome of one simulated run.
type Result struct {
	// App names the application: a registered app name (see Apps),
	// "spmm" for a multi-apply spmv run, or "opmm".
	App string
	// Mode is the design variant.
	Mode Mode
	// N and B are the problem and block sizes.
	N, B int
	// Seconds is the simulated wall time of the whole application.
	Seconds float64
	// GFLOPS is useful work over Seconds.
	GFLOPS float64
	// Flops is the useful floating-point work.
	Flops float64
	// NetworkBytes is total fabric traffic.
	NetworkBytes int64
	// Coordinations is processor<->FPGA handshakes across all nodes.
	Coordinations int64
	// CPUBusy and FPGABusy are per-node busy seconds.
	CPUBusy, FPGABusy []float64
	// MaxResidual is the largest deviation of the functional result
	// from the sequential reference (0 when Functional is off).
	MaxResidual float64
	// Checked reports whether a functional comparison was performed.
	Checked bool
	// Telemetry is the structured span digest of the run — per-process
	// utilization, bytes moved, and the overlap decomposition against
	// the model's Tp/Tf/Tmem/Tcomm terms. Nil unless the run's config
	// enabled Telemetry.
	Telemetry *trace.Summary
	// Repartitions lists every mid-run re-solve of the partition
	// equations a fault injector triggered, in order. Empty without
	// fault injection.
	Repartitions []Repartition
	// DeadNodes lists the nodes lost to injected kill faults by the end
	// of the run, in node order. Empty without fault injection.
	DeadNodes []int
}

// Utilization returns mean busy fraction of the given per-node series.
func (r *Result) Utilization(busy []float64) float64 {
	if r.Seconds <= 0 || len(busy) == 0 {
		return 0
	}
	var s float64
	for _, b := range busy {
		s += b
	}
	return s / (float64(len(busy)) * r.Seconds)
}

func collectBusy(sys *machine.System) (cpu, fpga []float64) {
	for _, n := range sys.Nodes {
		cpu = append(cpu, n.CPUBusy.BusySeconds())
		if n.Accel != nil {
			fpga = append(fpga, n.Accel.Array.BusySeconds())
		} else {
			fpga = append(fpga, 0)
		}
	}
	return cpu, fpga
}

func collectCoordinations(sys *machine.System) int64 {
	var c int64
	for _, n := range sys.Nodes {
		if n.Accel != nil {
			c += n.Accel.Coordinations()
		}
	}
	return c
}

// setupTelemetry registers any caller-provided observer on the engine
// and, when summarize is set, also an internal recorder whose digest
// the run attaches to its Result.Telemetry.
func setupTelemetry(eng *sim.Engine, summarize bool, obs sim.Observer) *trace.Recorder {
	if obs != nil {
		eng.Observe(obs)
	}
	if !summarize {
		return nil
	}
	rec := trace.NewRecorder()
	eng.Observe(rec)
	return rec
}

// summarizeTelemetry fills r.Telemetry from the recorder (no-op when
// telemetry was not enabled).
func summarizeTelemetry(rec *trace.Recorder, end float64, r *Result) {
	if rec != nil {
		r.Telemetry = rec.Summarize(end)
	}
}
