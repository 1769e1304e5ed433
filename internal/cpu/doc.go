// Package cpu models the general-purpose processor of a node as the
// design model sees it: a sustained floating-point rate per kernel
// class (the Op·Fp of Section 4.1), plus the latencies of the vendor
// library routines the software side calls — the ACML
// dgemm/dgetrf/dtrsm of Table 1 and the scalar Floyd-Warshall kernel.
// The rates are the paper's measured constants for the 2.2 GHz Opteron.
package cpu
