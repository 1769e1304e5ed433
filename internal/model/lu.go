package model

import (
	"fmt"
	"math"

	"codesign/internal/fpga"
)

// LUParams instantiates the design model for the block LU decomposition
// of Section 5.1.
type LUParams struct {
	// P is the node count; B the block size; K the FPGA PE count.
	P, B, K int
	// Ff is the FPGA matmul design clock (Hz).
	Ff float64
	// StripeRate is the processor's sustained FLOP/s on the hybrid
	// opMM's rank-K panel updates (Op×Fp for this kernel).
	StripeRate float64
	// LURate, TrsmRate are the sustained FLOP/s of the opLU (dgetrf)
	// and opL/opU (dtrsm) library routines.
	LURate, TrsmRate float64
	// Bd, Bn, Bw as in Params.
	Bd, Bn, Bw float64
	// SRAMBytes is the on-board memory available for the FPGA's
	// intermediate results (8 MB allocated in the paper).
	SRAMBytes int64
}

// Validate checks the parameters.
func (lp LUParams) Validate() error {
	switch {
	case lp.P < 2:
		return fmt.Errorf("model: LU design needs p >= 2 (panel node + compute nodes), got %d", lp.P)
	case lp.B < 1 || lp.K < 1:
		return fmt.Errorf("model: bad geometry b=%d k=%d", lp.B, lp.K)
	case lp.B%lp.K != 0:
		return fmt.Errorf("model: block size %d must be a multiple of k=%d", lp.B, lp.K)
	case lp.Ff <= 0 || lp.StripeRate <= 0 || lp.LURate <= 0 || lp.TrsmRate <= 0:
		return fmt.Errorf("model: non-positive rate")
	case lp.Bd <= 0 || lp.Bn <= 0 || lp.Bw <= 0:
		return fmt.Errorf("model: non-positive bandwidth")
	}
	return nil
}

// StripeTimes returns the per-stripe times of Section 5.1.3 for a given
// row split bf: the FPGA compute time Tf, the processor compute time
// Tp, the DRAM transfer Tmem and the network transfer Tcomm for one
// column stripe of C and one row stripe of D.
func (lp LUParams) StripeTimes(bf int) (tf, tp, tmem, tcomm float64) {
	b := float64(lp.B)
	k := float64(lp.K)
	pm1 := float64(lp.P - 1)
	bp := b - float64(bf)
	// bf·b/(p-1) cycles over Ff, written out: dividing once by (p-1)·Ff
	// rounds differently from the array's StripeCycles/Ff.
	tf = float64(bf) * b / (pm1 * lp.Ff)
	tp = 2 * bp * b * k / (pm1 * lp.StripeRate)
	tmem = fpga.MatMulDesign{K: lp.K}.StripeWords(1, bf, lp.B, lp.P-1) * lp.Bw / lp.Bd
	tcomm = 2 * b * k * lp.Bw / lp.Bn
	return tf, tp, tmem, tcomm
}

// SolvePartition solves Equation (4), Tf = Tcomm + Tmem + Tp, for the
// row split: bf rows of each stripe to the FPGA, bp = b - bf to the
// processor. bf is rounded to the nearest multiple of K and clamped to
// the SRAM capacity constraint bf·b/(p-1) words <= SRAMBytes/bw.
func (lp LUParams) SolvePartition() (bf, bp int) {
	b := float64(lp.B)
	k := float64(lp.K)
	pm1 := float64(lp.P - 1)
	// Collect Equation (4) as coef·bf = rhs:
	//   bf·b/(pm1·Ff) - bf·k·bw/Bd + 2·bf·b·k/(pm1·R)
	//     = 2·b·k·bw/Bn + b·k·bw/(pm1·Bd) + 2·b²·k/(pm1·R)
	coef := b/(pm1*lp.Ff) - k*lp.Bw/lp.Bd + 2*b*k/(pm1*lp.StripeRate)
	rhs := 2*b*k*lp.Bw/lp.Bn + b*k*lp.Bw/(pm1*lp.Bd) + 2*b*b*k/(pm1*lp.StripeRate)
	raw := rhs / coef
	// Round to a PE-array-friendly multiple of K.
	bf = int(math.Round(raw/k)) * lp.K
	if bf < 0 {
		bf = 0
	}
	if bf > lp.B {
		bf = lp.B
	}
	// SRAM constraint: the FPGA's C rows (bf × b/(p-1) words) must fit.
	if lp.SRAMBytes > 0 {
		maxBf := int(float64(lp.SRAMBytes) / lp.Bw * pm1 / b)
		maxBf -= maxBf % lp.K
		if bf > maxBf {
			bf = maxBf
		}
	}
	return bf, lp.B - bf
}

// OpMMTime returns the latency of one full b×b block multiplication on
// the p-1 compute nodes with row split bf: b/k stripes, each taking the
// FPGA stripe time (transfers and the processor share overlap all
// stripes but the first, Section 5.1.3).
func (lp LUParams) OpMMTime(bf int) float64 {
	tf, _, _, _ := lp.StripeTimes(bf)
	return float64(lp.B) / float64(lp.K) * tf
}

// PanelTimes returns the processor latencies of one opLU and one
// opL/opU at block size B (Table 1's rows).
func (lp LUParams) PanelTimes() (tlu, ttrsm float64) {
	b := float64(lp.B)
	return (2.0 / 3.0) * b * b * b / lp.LURate, b * b * b / lp.TrsmRate
}

// SolveL solves Equation (5) for the panel pipeline depth l: while the
// panel node runs one opLU/opL/opU, the other nodes run l opMM
// operations; communication of the l opMMs' operands is charged to the
// panel node:
//
//	max{Tlu, Topl, Topu} + l·(b/k)·Tcomm = l·bf·b²/((p-1)·k·Ff)
func (lp LUParams) SolveL(bf int) int {
	tlu, ttrsm := lp.PanelTimes()
	longest := math.Max(tlu, ttrsm)
	_, _, _, tcomm := lp.StripeTimes(bf)
	stripes := float64(lp.B) / float64(lp.K)
	mm := lp.OpMMTime(bf)
	denom := mm - stripes*tcomm
	if denom <= 0 {
		return 1
	}
	l := int(math.Round(longest / denom))
	if l < 1 {
		l = 1
	}
	return l
}

// PredictLU runs the Section 4.5 predictor for an n×n factorization:
// every transfer and communication overlaps FPGA compute; the predicted
// latency is the sum over iterations of the dominant resource.
func (lp LUParams) PredictLU(n, bf int) Prediction {
	nb := n / lp.B
	tlu, ttrsm := lp.PanelTimes()
	tfStripe, tpStripe, _, _ := lp.StripeTimes(bf)
	stripes := float64(lp.B) / float64(lp.K)
	var ttp, ttf float64
	for t := 0; t < nb; t++ {
		rem := float64(nb - 1 - t) // trailing block-row/col count
		mms := rem * rem           // opMM count this iteration
		// Panel node CPU: one opLU + rem opL + rem opU.
		panel := tlu + 2*rem*ttrsm
		// Compute nodes: each opMM is b/k stripes on FPGA and CPU.
		fpga := mms * stripes * tfStripe
		cpuMM := mms * stripes * tpStripe
		// Processor-side critical path: panel work and opMM CPU halves
		// proceed on different nodes concurrently.
		ttp += math.Max(panel, cpuMM)
		ttf += fpga
	}
	flops := 2.0 / 3.0 * float64(n) * float64(n) * float64(n)
	return predict(ttp, ttf, flops)
}

// CoordinationHz returns the processor<->FPGA coordination frequency of
// Section 5.1.3: 2(p-1)·Ff/(bf·b) handshakes per second.
func (lp LUParams) CoordinationHz(bf int) float64 {
	return 2 * float64(lp.P-1) * lp.Ff / (float64(bf) * float64(lp.B))
}

// StripeMakespan returns the per-stripe makespan at split bf under the
// model: the slower of the FPGA side and the processor side (compute +
// transfers, which the processor cannot overlap).
func (lp LUParams) StripeMakespan(bf int) float64 {
	tf, tp, tmem, tcomm := lp.StripeTimes(bf)
	cpuSide := tcomm + tmem + tp
	if tf > cpuSide {
		return tf
	}
	return cpuSide
}

// BruteForcePartition scans every multiple of K for the split that
// minimizes the per-stripe makespan — an independent check on the
// closed-form Equation (4) solver (and on what Figure 5 measures).
func (lp LUParams) BruteForcePartition() (bf int) {
	best := math.Inf(1)
	for cand := 0; cand <= lp.B; cand += lp.K {
		if m := lp.StripeMakespan(cand); m < best {
			best, bf = m, cand
		}
	}
	return bf
}
