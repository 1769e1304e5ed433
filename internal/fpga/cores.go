package fpga

// Core describes a pipelined floating-point unit as instantiated on the
// FPGA: its function, pipeline depth and the maximum clock frequency the
// placed-and-routed core achieves. Values follow the double-precision
// cores of Govindu et al. [8] on Virtex-II Pro, which the paper's
// designs instantiate (the full designs close timing at 130 MHz for the
// matrix multiplier and 120 MHz for the Floyd-Warshall array). The
// model reads a core only for its clock and its area; the arithmetic it
// performs is IEEE-754 binary64 with round-to-nearest-even, the same as
// the host's float64.
type Core struct {
	// Name identifies the core, e.g. "add64", "mul64", "cmp64".
	Name string
	// PipelineStages is the latency in clock cycles from operand issue
	// to result.
	PipelineStages int
	// MaxFreqHz is the post-place-and-route maximum clock frequency of
	// the core in isolation.
	MaxFreqHz float64
	// Slices is the approximate Virtex-II Pro slice cost of one core.
	Slices int
	// Embedded18x18 is the number of embedded 18×18 multiplier blocks
	// consumed (only the multiplier uses them).
	Embedded18x18 int
}

// Standard double-precision cores. Slice and stage counts follow the
// published parameterizable library [8]; frequencies are the deeply
// pipelined configurations.
var (
	// Adder64 is the double-precision floating-point adder core.
	Adder64 = Core{Name: "add64", PipelineStages: 14, MaxFreqHz: 200e6, Slices: 1050}
	// Multiplier64 is the double-precision floating-point multiplier.
	Multiplier64 = Core{Name: "mul64", PipelineStages: 12, MaxFreqHz: 180e6, Slices: 1550, Embedded18x18: 9}
	// Comparator64 is the double-precision comparator used by the
	// Floyd-Warshall PEs (an adder datapath with the rounding stages
	// replaced by a magnitude compare).
	Comparator64 = Core{Name: "cmp64", PipelineStages: 3, MaxFreqHz: 250e6, Slices: 320}
)
