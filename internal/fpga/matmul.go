package fpga

import (
	"fmt"
	"math"

	"codesign/internal/fpmath"
)

// MatMulDesign is the linear-array floating-point matrix multiplier of
// Zhuo and Prasanna [21]: k PEs, each with one double-precision adder
// and one multiplier, performing two floating-point operations per
// cycle (Of = 2k). A k×k submatrix multiply has an effective latency of
// k² cycles.
type MatMulDesign struct {
	// K is the PE count.
	K int
}

// NewMatMul returns the design with k PEs.
func NewMatMul(k int) MatMulDesign {
	if k < 1 {
		panic(fmt.Sprintf("fpga: matmul design needs k >= 1, got %d", k))
	}
	return MatMulDesign{K: k}
}

// Name implements Design.
func (d MatMulDesign) Name() string { return "matmul-pe-array" }

// PEs implements Design.
func (d MatMulDesign) PEs() int { return d.K }

// perPE is the slice cost of one matmul PE: adder + multiplier +
// local control and operand registers.
const matmulPESlices = fpmathAdderSlices + fpmathMultSlices + 180

// base design overhead: DRAM streaming interface, SRAM controller,
// global control FSM.
const matmulBaseSlices = 1200

const (
	fpmathAdderSlices = 1050
	fpmathMultSlices  = 1550
)

// Resources implements Design.
func (d MatMulDesign) Resources() Usage {
	return Usage{
		Slices:      matmulBaseSlices + d.K*matmulPESlices,
		BlockRAMs:   16 + 2*d.K, // per-PE operand buffers + staging FIFOs
		Multipliers: d.K * fpmath.Multiplier64.Embedded18x18,
	}
}

// MinCoreFmaxHz implements Design: the multiplier is the slowest core.
func (d MatMulDesign) MinCoreFmaxHz() float64 { return fpmath.Multiplier64.MaxFreqHz }

// RoutingDerate implements Design: the linear array routes cleanly.
func (d MatMulDesign) RoutingDerate() float64 { return 1.0 }

// OpsPerCycle returns Of: floating-point operations per cycle (each PE
// does one multiply and one add).
func (d MatMulDesign) OpsPerCycle() int { return 2 * d.K }

// Cycles returns the cycle count for an (m×kk)·(kk×n) multiply on the
// array: the operands are tiled into k×k submatrices, each submatrix
// multiply taking an effective k² cycles [21], plus one pipeline fill.
func (d MatMulDesign) Cycles(m, kk, n int) float64 {
	if m <= 0 || kk <= 0 || n <= 0 {
		return 0
	}
	k := d.K
	tiles := math.Ceil(float64(m)/float64(k)) * math.Ceil(float64(kk)/float64(k)) * math.Ceil(float64(n)/float64(k))
	fill := float64(fpmath.Adder64.PipelineStages + fpmath.Multiplier64.PipelineStages)
	return tiles*float64(k*k) + fill
}

// SRAMWords returns the on-board memory the design needs to hold the
// intermediate C rows for a bf×w result (Section 5.1.3: bf·b/(p-1)
// words).
func (d MatMulDesign) SRAMWords(bf, w int) int64 { return int64(bf) * int64(w) }
