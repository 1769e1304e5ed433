package model

import (
	"fmt"
	"math"

	"codesign/internal/fpga"
)

// MMParams instantiates the design model for plain hybrid matrix
// multiplication — the application of the authors' earlier work [22]
// that Section 5.1.3 builds on. Each node multiplies its share of the
// result without network communication, so the partition is the pure
// Equation (1) case: Tp + Df/Bd = Tf per operand stripe.
type MMParams struct {
	// P is the node count; N the matrix size; K the PE count.
	P, N, K int
	// Ff is the FPGA matmul design clock.
	Ff float64
	// StripeRate is the processor's sustained FLOP/s on rank-K updates.
	StripeRate float64
	// Bd, Bw as in Params.
	Bd, Bw float64
	// SRAMBytes constrains the FPGA's result rows.
	SRAMBytes int64
}

// Validate checks the parameters.
func (mp MMParams) Validate() error {
	switch {
	case mp.P < 1:
		return fmt.Errorf("model: mm needs p >= 1, got %d", mp.P)
	case mp.N < 1 || mp.K < 1:
		return fmt.Errorf("model: bad geometry n=%d k=%d", mp.N, mp.K)
	case mp.N%mp.K != 0:
		return fmt.Errorf("model: n=%d must be a multiple of k=%d", mp.N, mp.K)
	case mp.N%mp.P != 0:
		return fmt.Errorf("model: n=%d must be a multiple of p=%d", mp.N, mp.P)
	case mp.Ff <= 0 || mp.StripeRate <= 0 || mp.Bd <= 0 || mp.Bw <= 0:
		return fmt.Errorf("model: non-positive rate")
	}
	return nil
}

// Width returns the result columns per node.
func (mp MMParams) Width() int { return mp.N / mp.P }

// StripeTimes returns the per-stripe costs for FPGA row share bf: the
// node multiplies an (n×k) stripe of A by a (k×w) stripe of B, the FPGA
// taking bf rows of the result and the processor n-bf.
func (mp MMParams) StripeTimes(bf int) (tf, tp, tmem float64) {
	w := mp.Width()
	d := fpga.MatMulDesign{K: mp.K}
	tf = d.StripeCycles(1, bf, w, 1) / mp.Ff
	tp = 2 * float64(mp.N-bf) * float64(mp.K) * float64(w) / mp.StripeRate
	tmem = d.StripeWords(1, bf, w, 1) * mp.Bw / mp.Bd
	return tf, tp, tmem
}

// SolvePartition solves Equation (1) per stripe: Tf = Tmem + Tp, giving
// the FPGA's result-row share bf (a multiple of K, clamped by SRAM).
func (mp MMParams) SolvePartition() (bf, bp int) {
	w := float64(mp.Width())
	k := float64(mp.K)
	n := float64(mp.N)
	// bf·w/Ff - bf·k·bw/Bd + 2·bf·k·w/R = k·w·bw/Bd + 2·n·k·w/R
	coef := w/mp.Ff - k*mp.Bw/mp.Bd + 2*k*w/mp.StripeRate
	rhs := k*w*mp.Bw/mp.Bd + 2*n*k*w/mp.StripeRate
	raw := rhs / coef
	bf = int(math.Round(raw/k)) * mp.K
	if bf < 0 {
		bf = 0
	}
	if bf > mp.N {
		bf = mp.N
	}
	if mp.SRAMBytes > 0 {
		maxBf := int(float64(mp.SRAMBytes) / mp.Bw / w)
		maxBf -= maxBf % mp.K
		if bf > maxBf {
			bf = maxBf
		}
	}
	return bf, mp.N - bf
}

// PredictMM runs the Section 4.5 predictor: n/k stripes per node, all
// transfers overlapped with FPGA compute.
func (mp MMParams) PredictMM(bf int) Prediction {
	tf, tp, _ := mp.StripeTimes(bf)
	stripes := float64(mp.N / mp.K)
	n := float64(mp.N)
	return predict(stripes*tp, stripes*tf, 2*n*n*n)
}
