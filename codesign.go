// Package codesign is the public API of a full reproduction of
// "Hardware/Software Co-Design for Matrix Computations on Reconfigurable
// Computing Systems" (Zhuo & Prasanna, IPDPS 2007).
//
// It exposes the paper's user-facing surface:
//
//   - The design model (Section 4): the system parameters and the
//     workload partition solvers of Equations (1)-(6). See LUModel,
//     FWModel and ModelParams.
//
//   - The simulated reconfigurable computing systems of Section 3. See
//     MachineXD1 and MachineXT3DRC.
//
//   - The co-designed applications (Section 5): distributed block LU
//     decomposition and blocked Floyd-Warshall, plus the Cholesky
//     extension, each run in hybrid mode or as a processor-only or
//     FPGA-only baseline. See RunLU, RunFW and RunCholesky.
//
// Quick start:
//
//	res, err := codesign.RunLU(codesign.LUConfig{
//		N: 30000, B: 3000, BF: -1, L: -1, Mode: codesign.Hybrid,
//	})
//	// res.GFLOPS ≈ 18-20 on the simulated XD1 chassis; res.BF == 1280.
//
// The sweeps, the solve service, fault injection, trace analysis and
// the paper's tables and figures live in the commands under cmd/.
package codesign

import (
	"codesign/internal/core"
	"codesign/internal/machine"
	"codesign/internal/model"
)

// Design-variant modes (Figure 9).
const (
	Hybrid        = core.Hybrid
	ProcessorOnly = core.ProcessorOnly
	FPGAOnly      = core.FPGAOnly
)

// Configuration, result and model types.
type (
	// Mode selects hybrid or a baseline design.
	Mode = core.Mode
	// LUConfig configures a distributed block LU run.
	LUConfig = core.LUConfig
	// LUResult is the outcome of a block LU run.
	LUResult = core.LUResult
	// FWConfig configures a distributed Floyd-Warshall run.
	FWConfig = core.FWConfig
	// FWResult is the outcome of a Floyd-Warshall run.
	FWResult = core.FWResult
	// CholConfig configures a hybrid Cholesky factorization run (the
	// ScaLAPACK-trio extension application).
	CholConfig = core.CholConfig
	// CholResult is the outcome of a hybrid Cholesky run.
	CholResult = core.CholResult
	// MachineConfig describes a reconfigurable computing system.
	MachineConfig = machine.Config
	// LUModel instantiates the design model for block LU (Eqs. 4-5).
	LUModel = model.LUParams
	// FWModel instantiates the design model for Floyd-Warshall (Eq. 6).
	FWModel = model.FWParams
	// ModelParams are the raw Section 4.1 system parameters (Eqs. 1-2).
	ModelParams = model.Params
)

// RunLU simulates the distributed block LU decomposition of Section 5.1
// on the configured machine and returns measured throughput, the
// derived partition (bf/bp/l) and the model prediction.
func RunLU(cfg LUConfig) (*LUResult, error) { return core.RunLU(cfg) }

// RunFW simulates the distributed blocked Floyd-Warshall algorithm of
// Section 5.2.
func RunFW(cfg FWConfig) (*FWResult, error) { return core.RunFW(cfg) }

// RunCholesky simulates the distributed hybrid Cholesky factorization
// extension (same co-design engine as LU, half the flops, square-root
// unit on the panel datapath).
func RunCholesky(cfg CholConfig) (*CholResult, error) { return core.RunCholesky(cfg) }

// Machine presets (Section 3).
var (
	// MachineXD1 is one Cray XD1 chassis: the paper's testbed.
	MachineXD1 = machine.XD1
	// MachineXT3DRC is a Cray XT3 partition with DRC Virtex-4 modules.
	MachineXT3DRC = machine.XT3DRC
)
