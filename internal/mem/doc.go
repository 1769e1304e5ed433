// Package mem models the node memory system seen by the co-design
// model: the DRAM the processor owns, the FPGA's streaming access to it
// over the processor interconnect (the Bd of Section 4.1 — 1.04 GB/s
// effective for the matrix multiplier reading one word per cycle at
// 130 MHz), and the on-board SRAM the designs stage operands in.
package mem
