package cpu

import "fmt"

// Routine identifies a kernel class with its own sustained rate.
type Routine string

// Routine classes used by the two applications.
const (
	DGEMM Routine = "dgemm" // dense square matrix multiply (large k)
	// DGEMMStripe is dgemm on a rank-k panel update — the (bp×k)·(k×w)
	// multiplies of the hybrid opMM pipeline. Rank-k updates are
	// memory-bandwidth bound and sustain well below square-dgemm rate.
	DGEMMStripe Routine = "dgemm-stripe"
	DGETRF      Routine = "dgetrf"   // panel LU factorization (opLU)
	DTRSM       Routine = "dtrsm"    // triangular solve (opL, opU)
	FWKernel    Routine = "fw"       // scalar blocked Floyd-Warshall kernel
	Subtract    Routine = "subtract" // opMS matrix subtraction (memory bound)
	// DGEMV is dense matrix-vector multiplication (memory-bandwidth
	// bound; the software half of the CG extension's operator apply).
	DGEMV Routine = "dgemv"
	// SpMV is CSR sparse matrix-vector multiplication. The column-index
	// gather defeats hardware prefetch, so the sustained rate sits far
	// below dgemv — memory-latency bound rather than bandwidth bound.
	SpMV Routine = "spmv"
	// VectorOp covers the O(n) CG vector kernels (dot, axpy).
	VectorOp Routine = "vecop"
)

// Processor is a sustained-rate processor model.
type Processor struct {
	// Name identifies the part, e.g. "AMD Opteron 2.2 GHz".
	Name string
	// FreqHz is the core clock (Fp).
	FreqHz float64
	// Sustained maps each routine class to its sustained FLOP/s
	// (Op×Fp for that class).
	Sustained map[Routine]float64
}

// Opteron22 returns the 2.2 GHz AMD Opteron model with the paper's
// measured rates: 3.9 GFLOPS dgemm at matrix size 2048 (ACML), the
// dgetrf/dtrsm rates implied by Table 1 at b = 3000, and 190 MFLOPS for
// the scalar Floyd-Warshall kernel at b = 256.
func Opteron22() *Processor {
	return &Processor{
		Name:   "AMD Opteron 2.2 GHz",
		FreqHz: 2.2e9,
		Sustained: map[Routine]float64{
			DGEMM: 3.9e9,
			// Rank-8 panel updates stream the full C panel per 8
			// accumulated columns and sustain ~76% of square dgemm.
			DGEMMStripe: 2.95e9,
			// Table 1: dgetrf on a 3000x3000 block takes 4.9 s;
			// (2/3)b^3 flops / 4.9 s = 3.67 GFLOPS.
			DGETRF: 2.0 / 3.0 * 3000 * 3000 * 3000 / 4.9,
			// Table 1: dtrsm on a 3000-wide panel takes 7.1 s;
			// b^3 flops / 7.1 s = 3.80 GFLOPS.
			DTRSM: 3000 * 3000 * 3000 / 7.1,
			// Section 6.1: 190 MFLOPS sustained for the b = 256
			// scalar Floyd-Warshall kernel.
			FWKernel: 190e6,
			// opMS is memory bound; one subtract per ~two DRAM
			// accesses at 3.2 GB/s gives roughly 400 MFLOP/s.
			Subtract: 400e6,
			// dgemv streams the matrix once per call: ~1.2 GFLOPS on
			// DDR-era Opterons.
			DGEMV: 1.2e9,
			// CSR spmv pays an indirect gather per nonzero; unblocked
			// kernels of the OSKI era sustain ~3-7% of peak on this
			// part, ~150 MFLOPS.
			SpMV: 150e6,
			// dot/axpy touch two or three vectors per flop pair.
			VectorOp: 800e6,
		},
	}
}

// Rate returns the sustained FLOP/s for the routine class; it panics on
// an unknown class so misconfigured models fail loudly.
func (p *Processor) Rate(r Routine) float64 {
	v, ok := p.Sustained[r]
	if !ok || v <= 0 {
		panic(fmt.Sprintf("cpu: processor %q has no sustained rate for routine %q", p.Name, r))
	}
	return v
}

// Time returns the modeled execution time of flops floating-point
// operations of the given routine class.
func (p *Processor) Time(r Routine, flops float64) float64 {
	if flops < 0 {
		panic(fmt.Sprintf("cpu: negative flop count %g", flops))
	}
	return flops / p.Rate(r)
}

// Flops for the standard routines, as functions of the block size.

// DgetrfFlops returns the flop count of an LU panel factorization of a
// b×b block: (2/3)b³.
func DgetrfFlops(b int) float64 { n := float64(b); return 2.0 / 3.0 * n * n * n }

// DtrsmFlops returns the flop count of a triangular solve with a b×b
// factor and b right-hand sides: b³.
func DtrsmFlops(b int) float64 { n := float64(b); return n * n * n }

// FWBlockFlops returns the flop count of one b×b Floyd-Warshall block
// operation: b³ additions plus b³ comparisons (Section 5.2.3).
func FWBlockFlops(b int) float64 { n := float64(b); return 2 * n * n * n }

// SubtractFlops returns the flop count of an opMS on a b×b block: b².
func SubtractFlops(b int) float64 { n := float64(b); return n * n }

// Table1Row is one row of the paper's Table 1: the ACML routine used for
// an LU task and its modeled latency.
type Table1Row struct {
	// Operation is the LU task, e.g. "opLU".
	Operation string
	// Routine is the ACML routine that performs it, e.g. "dgetrf".
	Routine string
	// LatencyS is the routine's modeled latency in seconds.
	LatencyS float64
}

// Table1 reproduces Table 1 for block size b on processor p.
func Table1(p *Processor, b int) []Table1Row {
	return []Table1Row{
		{Operation: "opLU", Routine: "dgetrf", LatencyS: p.Time(DGETRF, DgetrfFlops(b))},
		{Operation: "opL", Routine: "dtrsm", LatencyS: p.Time(DTRSM, DtrsmFlops(b))},
		{Operation: "opU", Routine: "dtrsm", LatencyS: p.Time(DTRSM, DtrsmFlops(b))},
	}
}
