package core

import (
	"fmt"

	"codesign/internal/cpu"
	"codesign/internal/fpga"
	"codesign/internal/machine"
	"codesign/internal/model"
)

// Pricing is one resolved design point, the input of an app's model
// half (App.Price).
type Pricing struct {
	// Machine is the system.
	Machine machine.Config
	// Proc is the node processor.
	Proc *cpu.Processor
	// N, B and K are the problem size, block size and PE count.
	N, B, K int
	// Ff and Bd are the design clock and effective DRAM bandwidth: a
	// simulation passes its installed design's, the sweep its
	// placement's, and the model half never derives one from the other
	// (DESIGN.md §15).
	Ff, Bd float64
	// Mode selects hybrid or a baseline.
	Mode Mode
	// BF, L and L1 are the requested partition as in Spec (-1 solves).
	BF, L, L1 int
	// Density is the spmv operator density (0 = dense).
	Density float64
	// Applies is spmv's operator applications; 0 prices one.
	Applies int
	// Memo, when non-nil, answers the partition solves.
	Memo Memo
}

// Priced is an app's closed-form evaluation of one design point.
type Priced struct {
	// Split is the resolved partition.
	Split Split
	// Prediction is the Section 4.5 forecast at Split.
	Prediction model.Prediction
	// Binding is the predicted binding of the app's modeled phase
	// (AppResult.Phase).
	Binding model.Binding
	// Margin is Binding's normalized imbalance.
	Margin float64
	// Lookups counts the partition solves asked of Pricing.Memo, Solves
	// the ones it computed.
	Lookups, Solves int
}

// Memo shares partition solves between pricings (the sweep's memo).
type Memo interface {
	// Solve returns s.Solve(), computed at most once per distinct s,
	// and whether this call computed it.
	Solve(s PartitionSolve) (a, b int, computed bool)
}

// PartitionSolve is one closed-form partition solve, comparable so a
// Memo can key on it.
type PartitionSolve struct {
	// Kind names the equation: "lu.bf" (Eq. 4), "lu.l" (Eq. 5), "fw.l1"
	// (Eq. 6), "mm.bf" or "spmv.rf" (Eq. 1).
	Kind string
	// Params is the model: model.LUParams, FWParams, MMParams or
	// SpMVParams.
	Params any
	// Arg is the scalar a solve needs: bf for Eq. 5, n for Eq. 6.
	Arg int
}

// Solve computes the solve: the two shares (bf/bp, l/0, l1/l2, rows).
func (s PartitionSolve) Solve() (int, int) {
	switch p := s.Params.(type) {
	case model.LUParams:
		if s.Kind == "lu.l" {
			return p.SolveL(s.Arg), 0
		}
		return p.SolvePartition()
	case model.FWParams:
		return p.SolveSplit(s.Arg)
	case model.MMParams:
		return p.SolvePartition()
	case model.SpMVParams:
		return p.SolvePartition()
	}
	panic(fmt.Sprintf("core: no solver for %T", s.Params))
}

// solve answers s through m, counting the traffic on p.
func (p *Priced) solve(m Memo, s PartitionSolve) (int, int) {
	if m == nil {
		return s.Solve()
	}
	a, b, computed := m.Solve(s)
	p.Lookups++
	if computed {
		p.Solves++
	}
	return a, b
}

// MaxPEs is the app's PE rule: the largest array of its design family
// that fits dev, shrunk until it divides the block size b when
// BlockPEs is set; 0 when not even one PE fits.
func (a App) MaxPEs(dev fpga.Device, b int) int {
	k := fpga.MaxPEs(a.Design, dev)
	if a.BlockPEs {
		for k > 1 && b%k != 0 {
			k--
		}
	}
	return k
}

// priceOf adapts a typed model half to App.Price.
func priceOf[P any](half func(Pricing) (P, Priced, error)) func(Pricing) (Priced, error) {
	return func(q Pricing) (Priced, error) {
		_, pr, err := half(q)
		return pr, err
	}
}
