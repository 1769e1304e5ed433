// Package core implements the paper's hybrid designs (Section 5): the
// distributed block LU decomposition (Section 5.1, partitioned by
// Equations 4 and 5) and the distributed blocked Floyd-Warshall
// algorithm (Section 5.2, split by Equation 6), each in three
// variants — Hybrid (processor + FPGA per the co-design model),
// ProcessorOnly and FPGAOnly (the two baselines of Section 6.2) —
// executing on a simulated reconfigurable computing system built by
// internal/machine. The extension applications the paper's conclusion
// calls for ride on the same engine: hybrid matrix multiplication
// (the pure Equation 1 case), Cholesky (LU's pipeline with a symmetric
// update), Householder QR and conjugate gradient.
//
// Every run is a discrete-event simulation of the full distributed
// schedule: panel factorizations, stripe broadcasts, DRAM streaming,
// FPGA jobs, result scatters and subtractions all occur as events whose
// durations come from the machine model. With Functional enabled the
// events also carry real matrices through the real kernels, so the
// distributed result can be checked against the sequential references
// in internal/matrix.
package core
