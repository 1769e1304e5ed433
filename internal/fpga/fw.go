package fpga

import (
	"fmt"

	"codesign/internal/fpmath"
	"codesign/internal/matrix"
)

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

const (
	fwPESlices   = fpmathAdderSlices + fpmathCmpSlices + 1280 // adder + comparator + pivot-row broadcast registers
	fwBaseSlices = 2200                                       // block sequencer, SRAM/DRAM interfaces
	// fpmathCmpSlices is the comparator core cost.
	fpmathCmpSlices = 320
)

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
func (d FWDesign) MinCoreFmaxHz() float64 { return fpmath.Adder64.MaxFreqHz }

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
	fill := float64(fpmath.Adder64.PipelineStages + fpmath.Comparator64.PipelineStages)
	return 2*n*n*n/float64(d.K) + fill
}

// The functional kernels mirror internal/matrix's loops exactly but run
// every add through the bit-exact adder core and every compare through
// the comparator, so tests can prove the hardware datapath agrees with
// the software kernels bit for bit.

// Op1BitExact performs the diagonal-block Floyd-Warshall (op1) through
// the fpmath cores.
func (d FWDesign) Op1BitExact(blk *matrix.Dense) {
	n, _ := blk.Dims()
	for k := 0; k < n; k++ {
		dk := blk.Row(k)
		for i := 0; i < n; i++ {
			di := blk.Row(i)
			dik := di[k]
			if dik >= matrix.Inf {
				continue
			}
			for j := 0; j < n; j++ {
				if v := fpmath.AddFloat(dik, dk[j]); fpmath.Less(v, di[j]) {
					di[j] = v
				}
			}
		}
	}
}

// Op21BitExact performs the row-block update (op21) through the cores.
func (d FWDesign) Op21BitExact(block, diag *matrix.Dense) {
	b, _ := diag.Dims()
	for k := 0; k < b; k++ {
		bk := block.Row(k)
		for i := 0; i < b; i++ {
			dik := diag.At(i, k)
			if dik >= matrix.Inf {
				continue
			}
			bi := block.Row(i)
			for j := range bi {
				if v := fpmath.AddFloat(dik, bk[j]); fpmath.Less(v, bi[j]) {
					bi[j] = v
				}
			}
		}
	}
}

// Op22BitExact performs the column-block update (op22) through the cores.
func (d FWDesign) Op22BitExact(block, diag *matrix.Dense) {
	b, _ := diag.Dims()
	for k := 0; k < b; k++ {
		dk := diag.Row(k)
		for i := 0; i < block.Rows(); i++ {
			bi := block.Row(i)
			bik := bi[k]
			if bik >= matrix.Inf {
				continue
			}
			for j := range bi {
				if v := fpmath.AddFloat(bik, dk[j]); fpmath.Less(v, bi[j]) {
					bi[j] = v
				}
			}
		}
	}
}

// Op3BitExact performs the (min,+) multiply-accumulate (op3) through the
// cores.
func (d FWDesign) Op3BitExact(a, b, c *matrix.Dense) {
	kk := a.Cols()
	for i := 0; i < c.Rows(); i++ {
		ci := c.Row(i)
		ai := a.Row(i)
		for l := 0; l < kk; l++ {
			ail := ai[l]
			if ail >= matrix.Inf {
				continue
			}
			bl := b.Row(l)
			for j := range ci {
				if v := fpmath.AddFloat(ail, bl[j]); fpmath.Less(v, ci[j]) {
					ci[j] = v
				}
			}
		}
	}
}
