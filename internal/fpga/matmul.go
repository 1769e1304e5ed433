package fpga

import "fmt"

// MatMulDesign is the linear-array floating-point matrix multiplier of
// Zhuo and Prasanna [21]: k PEs, each with one double-precision adder
// and one multiplier, performing two floating-point operations per
// cycle (Of = 2k). A k×k submatrix multiply has an effective latency of
// k² cycles, which StripeCycles and StripeWords turn into the one price
// every matmul-array workload charges.
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

// matmulPESlices is the slice cost of one matmul PE: adder +
// multiplier + local control and operand registers.
var matmulPESlices = Adder64.Slices + Multiplier64.Slices + 180

// base design overhead: DRAM streaming interface, SRAM controller,
// global control FSM.
const matmulBaseSlices = 1200

// Resources implements Design.
func (d MatMulDesign) Resources() Usage {
	return Usage{
		Slices:      matmulBaseSlices + d.K*matmulPESlices,
		BlockRAMs:   16 + 2*d.K, // per-PE operand buffers + staging FIFOs
		Multipliers: d.K * Multiplier64.Embedded18x18,
	}
}

// MinCoreFmaxHz implements Design: the multiplier is the slowest core.
func (d MatMulDesign) MinCoreFmaxHz() float64 { return Multiplier64.MaxFreqHz }

// RoutingDerate implements Design: the linear array routes cleanly.
func (d MatMulDesign) RoutingDerate() float64 { return 1.0 }

// OpsPerCycle returns Of: floating-point operations per cycle (each PE
// does one multiply and one add).
func (d MatMulDesign) OpsPerCycle() int { return 2 * d.K }

// StripeCycles returns the array's cycles for n stripes of a bf-row
// result share, each stripe a (bf×k)·(k×cols/div) product at k² cycles
// per k×k submatrix product [21]: bf·cols/div per stripe, the Tf of
// Section 5.1.3 in cycles. It divides last, so a div that does not
// divide cols (lu's p-1 after a node loss) still rounds once.
func (d MatMulDesign) StripeCycles(n, bf, cols, div int) float64 {
	return float64(n*bf) * float64(cols) / float64(div)
}

// StripeWords returns the words streamed to the array for the same n
// stripes: each stripe's bf×k operand slice and its k×cols/div share
// of the other operand, the words behind the Tmem of Section 5.1.3.
func (d MatMulDesign) StripeWords(n, bf, cols, div int) float64 {
	nk := float64(n * d.K)
	return float64(bf)*nk + float64(cols)*nk/float64(div)
}
