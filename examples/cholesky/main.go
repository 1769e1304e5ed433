// The extension the paper's conclusion promises: apply the design model
// to a broader application — block Cholesky factorization, the third
// routine of the ScaLAPACK set the paper builds on. The trailing
// symmetric update partitions exactly like LU's opMM (Equation 4 gives
// the same bf=1280), the panel node factors the diagonal block on its
// processor (opPOTRF, at half of opLU's flops), and the functional run
// factors a real SPD matrix.
package main

import (
	"fmt"
	"log"

	"codesign"
)

func main() {
	fmt.Println("Hybrid block Cholesky on a simulated Cray XD1 chassis")

	// Functional small run: factor a real SPD matrix and compare the
	// lower triangle against the sequential blocked reference.
	f, err := codesign.RunCholesky(codesign.CholConfig{
		N: 200, B: 40, PEs: 4, BF: -1, L: -1,
		Mode: codesign.Hybrid, Functional: true, Seed: 99,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  functional n=200: residual vs reference %.3g\n", f.MaxResidual)

	// Paper-scale timing with the model-derived partition.
	for _, mode := range []codesign.Mode{codesign.Hybrid, codesign.ProcessorOnly, codesign.FPGAOnly} {
		r, err := codesign.RunCholesky(codesign.CholConfig{
			N: 30000, B: 3000, BF: -1, L: -1, Mode: mode,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-15s bf=%d l=%d  %8.1f s  %6.2f GFLOPS\n",
			mode, r.BF, r.L, r.Seconds, r.GFLOPS)
	}

	// Same machine, same block size: Cholesky's trailing update is the
	// same stripe computation as LU's opMM, so Equation (4) hands the
	// FPGA the same 1280 rows — one partition analysis serves both.
	lu, err := codesign.RunLU(codesign.LUConfig{
		N: 30000, B: 3000, BF: -1, L: -1, Mode: codesign.Hybrid,
	})
	if err != nil {
		log.Fatal(err)
	}
	ch, err := codesign.RunCholesky(codesign.CholConfig{
		N: 30000, B: 3000, BF: -1, L: -1, Mode: codesign.Hybrid,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  LU bf=%d vs Cholesky bf=%d; Cholesky finishes in %.0f%% of LU's time (half the flops)\n",
		lu.BF, ch.BF, 100*ch.Seconds/lu.Seconds)
}
