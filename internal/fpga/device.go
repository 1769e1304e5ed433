package fpga

import "fmt"

// Device is an FPGA part's resource budget.
type Device struct {
	// Name is the part number, e.g. "XC2VP50".
	Name string
	// Slices is the logic slice count.
	Slices int
	// BlockRAMs is the number of 18 kb block RAMs.
	BlockRAMs int
	// Multipliers is the number of embedded 18×18 multiplier blocks
	// (or DSP-slice equivalents on Virtex-4).
	Multipliers int
	// ConfigSeconds is the full-bitstream configuration time.
	ConfigSeconds float64
}

// XC2VP50 is the Xilinx Virtex-II Pro device on each Cray XD1 blade.
func XC2VP50() Device {
	return Device{Name: "XC2VP50", Slices: 23616, BlockRAMs: 232, Multipliers: 232, ConfigSeconds: 0.05}
}

// XC4VLX160 is a mid-size Virtex-4 (SGI RASC RC100 class).
func XC4VLX160() Device {
	return Device{Name: "XC4VLX160", Slices: 67584, BlockRAMs: 288, Multipliers: 96, ConfigSeconds: 0.08}
}

// XC4VLX200 is the large Virtex-4 on the DRC modules for Cray XT3.
func XC4VLX200() Device {
	return Device{Name: "XC4VLX200", Slices: 89088, BlockRAMs: 336, Multipliers: 96, ConfigSeconds: 0.1}
}

// Usage is the resource consumption of a design instance.
type Usage struct {
	// Slices is the logic slice count.
	Slices int
	// BlockRAMs is the number of 18 kb block RAMs.
	BlockRAMs int
	// Multipliers is the number of embedded 18×18 multipliers.
	Multipliers int
}

// FitsIn reports whether the usage fits the device budget.
func (u Usage) FitsIn(d Device) bool {
	return u.Slices <= d.Slices && u.BlockRAMs <= d.BlockRAMs && u.Multipliers <= d.Multipliers
}

// Add returns the element-wise sum of two usages.
func (u Usage) Add(v Usage) Usage {
	return Usage{
		Slices:      u.Slices + v.Slices,
		BlockRAMs:   u.BlockRAMs + v.BlockRAMs,
		Multipliers: u.Multipliers + v.Multipliers,
	}
}

// Design is a synthesizable FPGA design parameterized by its PE count.
type Design interface {
	// Name identifies the design.
	Name() string
	// PEs returns the processing-element count k.
	PEs() int
	// Resources returns the post-synthesis resource usage.
	Resources() Usage
	// MinCoreFmaxHz is the slowest constituent core's maximum clock.
	MinCoreFmaxHz() float64
	// RoutingDerate scales achievable frequency for design-specific
	// routing pressure (1.0 = none).
	RoutingDerate() float64
}

// routingModel estimates post-place-and-route frequency: the slowest
// core's Fmax, derated linearly with slice utilization (congestion) and
// by the design's own routing factor. Calibrated so the paper's two
// designs close timing at 130 MHz and 120 MHz on the XC2VP50.
func routingModel(d Design, dev Device) float64 {
	util := float64(d.Resources().Slices) / float64(dev.Slices)
	if util > 1 {
		util = 1
	}
	return d.MinCoreFmaxHz() * (1 - 0.28*util) * d.RoutingDerate()
}

// Placed is a design mapped onto a device with a closed clock.
type Placed struct {
	// Design is the placed design.
	Design Design
	// Device is the part the design was placed on.
	Device Device
	// FreqHz is the achieved clock frequency (the model's Ff).
	FreqHz float64
}

// Place runs the pseudo place-and-route step: it verifies the design
// fits the device and computes the achievable clock.
func Place(d Design, dev Device) (*Placed, error) {
	u := d.Resources()
	if !u.FitsIn(dev) {
		return nil, fmt.Errorf("fpga: %s with k=%d needs %+v, exceeds %s budget {Slices:%d BlockRAMs:%d Multipliers:%d}",
			d.Name(), d.PEs(), u, dev.Name, dev.Slices, dev.BlockRAMs, dev.Multipliers)
	}
	return &Placed{Design: d, Device: dev, FreqHz: routingModel(d, dev)}, nil
}

// CyclesToSeconds converts a cycle count at the placed clock.
func (p *Placed) CyclesToSeconds(cycles float64) float64 { return cycles / p.FreqHz }

// MaxPEs returns the largest k for which mk(k) fits dev; 0 if even k=1
// does not fit.
func MaxPEs(mk func(k int) Design, dev Device) int {
	best := 0
	for k := 1; ; k++ {
		if !mk(k).Resources().FitsIn(dev) {
			return best
		}
		best = k
	}
}
