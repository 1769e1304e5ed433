// Package fpga models the FPGA accelerator of a node — the Of·Ff side
// of the Section 4.1 system parameters: the device's resource budget, a
// pseudo place-and-route step (Place) that decides how many processing
// elements fit and what clock frequency the placed design achieves, the
// two PE-array designs the paper instantiates (the matrix multiplier of
// Zhuo-Prasanna [21] and the Floyd-Warshall array of Bondhugula et al.
// [18]) with their published cycle-count models, and bit-exact
// functional kernels built on internal/fpmath.
package fpga
