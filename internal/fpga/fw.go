package fpga

import "fmt"

// FWDesign is the parallel Floyd-Warshall array of Bondhugula et al.
// [18]: k PEs, each with one double-precision adder and one comparator
// (Of = 2k). A b×b block operation takes 2b³/k cycles; the design
// needs 2k² words of on-chip memory and 2b² words of on-board SRAM.
type FWDesign struct {
	// K is the PE count.
	K int
}

// NewFW returns the design with k PEs.
func NewFW(k int) FWDesign {
	if k < 1 {
		panic(fmt.Sprintf("fpga: fw design needs k >= 1, got %d", k))
	}
	return FWDesign{K: k}
}

// Name implements Design.
func (d FWDesign) Name() string { return "fw-pe-array" }

// PEs implements Design.
func (d FWDesign) PEs() int { return d.K }

var fwPESlices = Adder64.Slices + Comparator64.Slices + 1280 // adder + comparator + pivot-row broadcast registers

const fwBaseSlices = 2200 // block sequencer, SRAM/DRAM interfaces

// Resources implements Design.
func (d FWDesign) Resources() Usage {
	return Usage{
		Slices:    fwBaseSlices + d.K*fwPESlices,
		BlockRAMs: 8 + 2*d.K, // 2k² words of on-chip pivot storage
		// No embedded multipliers: the datapath is add/compare only.
		Multipliers: 0,
	}
}

// MinCoreFmaxHz implements Design: the adder is the slowest core.
func (d FWDesign) MinCoreFmaxHz() float64 { return Adder64.MaxFreqHz }

// RoutingDerate implements Design: the pivot row/column broadcast to all
// PEs routes much worse than a linear array.
func (d FWDesign) RoutingDerate() float64 { return 0.83 }

// OpsPerCycle returns Of: one add and one compare per PE per cycle.
func (d FWDesign) OpsPerCycle() int { return 2 * d.K }

// Cycles returns the latency of one b×b Floyd-Warshall block operation:
// 2b³/k cycles [18], plus one pipeline fill.
func (d FWDesign) Cycles(b int) float64 {
	if b <= 0 {
		return 0
	}
	n := float64(b)
	fill := float64(Adder64.PipelineStages + Comparator64.PipelineStages)
	return 2*n*n*n/float64(d.K) + fill
}
