package core

import (
	"fmt"
	"math"

	"codesign/internal/fault"
	"codesign/internal/model"
	"codesign/internal/obs"
)

// recordRepartition publishes one repartition to the run's metrics
// registry: a core_repartitions_total counter keyed by reason and the
// core_live_nodes gauge. A nil registry (observability off) makes this
// a no-op, keeping fault recovery free of metric plumbing by default.
func recordRepartition(reg *obs.Registry, reason string, live int) {
	if reg == nil {
		return
	}
	reg.Counter(fmt.Sprintf(`core_repartitions_total{reason=%q}`, reason),
		"mid-run partition re-solves by trigger").Inc()
	reg.Gauge("core_live_nodes", "nodes still participating in the run").Set(float64(live))
}

// Repartition records one mid-run re-solve of the design equations: the
// virtual time and iteration it took effect, what triggered it, how many
// nodes were still alive, and the partition the degraded parameters
// yielded (BF/BP/L for LU, L1/L2 for FW).
type Repartition struct {
	// Time is the virtual time the new partition took effect.
	Time float64 `json:"time"`
	// Iteration is the outer iteration the re-solve preceded.
	Iteration int `json:"iteration"`
	// Reason is "divergence" (sustained rate divergence detected) or
	// "node-death" (a rank was lost to a kill fault).
	Reason string `json:"reason"`
	// Live is the number of nodes participating from here on.
	Live int `json:"live"`
	// BF is the re-solved Equation (4) FPGA stripe share (LU).
	BF int `json:"bf,omitempty"`
	// BP is the processor's stripe share.
	BP int `json:"bp,omitempty"`
	// L is the re-solved Equation (5) pipeline depth.
	L int `json:"l,omitempty"`
	// L1 is the re-solved Equation (6) processor ops per phase (FW).
	L1 int `json:"l1,omitempty"`
	// L2 is the FPGA's ops per phase.
	L2 int `json:"l2,omitempty"`
	// Factors is the degradation the equations were re-solved against.
	Factors model.Degradation `json:"factors"`
}

// faultTracker turns the injector's telemetry into repartition triggers:
// it remembers the factors the current partition was solved against and
// fires once the observed factors diverge from them by more than the
// threshold for at least the detection window of virtual time. In oracle
// mode it reads the configured ground truth instead (threshold ~0,
// window 0), firing at the first iteration boundary inside a fault.
type faultTracker struct {
	inj     *fault.Injector
	applied fault.Factors
	// divergedAt is when the current divergence streak began, -1 when
	// observations agree with the applied factors.
	divergedAt float64
}

func newFaultTracker(inj *fault.Injector) *faultTracker {
	return &faultTracker{inj: inj, applied: fault.Nominal(), divergedAt: -1}
}

// estimate returns the currently applied factors as a Degradation — the
// best available guess when a repartition is forced by a node death
// rather than a divergence trigger.
func (ft *faultTracker) estimate() model.Degradation {
	return model.Degradation{
		CPU: ft.applied.CPU, FPGA: ft.applied.FPGA,
		Bd: ft.applied.DRAM, Bn: ft.applied.Net,
	}
}

// sample reads the observed (or oracle) rate factors at an iteration
// boundary and decides whether to repartition. It reports the
// degradation to re-solve against and whether to act now.
func (ft *faultTracker) sample(now float64) (model.Degradation, bool) {
	var obs fault.Factors
	if ft.inj.Oracle() {
		obs = ft.inj.ActiveFactors(now)
	} else {
		obs = ft.inj.TakeObserved()
		// A class with no charges since the last sample reports 0;
		// keep the running estimate for it.
		if obs.CPU == 0 {
			obs.CPU = ft.applied.CPU
		}
		if obs.FPGA == 0 {
			obs.FPGA = ft.applied.FPGA
		}
		if obs.DRAM == 0 {
			obs.DRAM = ft.applied.DRAM
		}
		if obs.Net == 0 {
			obs.Net = ft.applied.Net
		}
	}
	dev := math.Abs(obs.CPU - ft.applied.CPU)
	for _, d := range [...]float64{
		math.Abs(obs.FPGA - ft.applied.FPGA),
		math.Abs(obs.DRAM - ft.applied.DRAM),
		math.Abs(obs.Net - ft.applied.Net),
	} {
		if d > dev {
			dev = d
		}
	}
	if dev <= ft.inj.Threshold() {
		ft.divergedAt = -1
		return model.Degradation{}, false
	}
	if ft.divergedAt < 0 {
		ft.divergedAt = now
		if ft.inj.Window() > 0 {
			return model.Degradation{}, false
		}
	}
	if now-ft.divergedAt < ft.inj.Window() {
		return model.Degradation{}, false
	}
	ft.applied = obs
	ft.divergedAt = -1
	return model.Degradation{CPU: obs.CPU, FPGA: obs.FPGA, Bd: obs.DRAM, Bn: obs.Net}, true
}
