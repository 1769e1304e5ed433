package fpga

import (
	"fmt"
	"math"

	"codesign/internal/fpmath"
)

// MVDesign is a streaming matrix-vector multiply-accumulate array for
// the conjugate-gradient extension (after the FPGA-augmented CG of
// Morris et al. [9]): k MAC units consume the matrix one word per cycle
// from DRAM while the vector sits in block RAM, producing one dot
// product per row. Throughput is stream-bound: the array sustains 2
// flops per delivered word, so its effective rate is min(2k·Ff,
// 2·Bd/bw) — on XD1-class systems the DRAM stream is the limit.
type MVDesign struct {
	// K is the MAC unit count.
	K int
}

// NewMV returns the design with k MAC units.
func NewMV(k int) MVDesign {
	if k < 1 {
		panic(fmt.Sprintf("fpga: mv design needs k >= 1, got %d", k))
	}
	return MVDesign{K: k}
}

// Name implements Design.
func (d MVDesign) Name() string { return "mv-mac-array" }

// PEs implements Design.
func (d MVDesign) PEs() int { return d.K }

const (
	mvPESlices   = fpmathAdderSlices + fpmathMultSlices + 140 // MAC + row accumulator
	mvBaseSlices = 1800                                       // stream splitter, vector BRAM, CSR index decode
)

// Resources implements Design.
func (d MVDesign) Resources() Usage {
	return Usage{
		Slices:      mvBaseSlices + d.K*mvPESlices,
		BlockRAMs:   24 + 2*d.K, // x-vector replicas per MAC
		Multipliers: d.K * fpmath.Multiplier64.Embedded18x18,
	}
}

// MinCoreFmaxHz implements Design.
func (d MVDesign) MinCoreFmaxHz() float64 { return fpmath.Multiplier64.MaxFreqHz }

// RoutingDerate implements Design: vector broadcast to all MACs.
func (d MVDesign) RoutingDerate() float64 { return 0.95 }

// OpsPerCycle returns Of: one multiply and one add per MAC per cycle.
func (d MVDesign) OpsPerCycle() int { return 2 * d.K }

// Cycles returns the compute cycles to process words matrix elements
// (dense: rows·n; sparse: nnz) through k MACs, plus pipeline fill.
func (d MVDesign) Cycles(words int) float64 {
	if words <= 0 {
		return 0
	}
	fill := float64(fpmath.Adder64.PipelineStages + fpmath.Multiplier64.PipelineStages)
	return math.Ceil(float64(words)/float64(d.K)) + fill
}
