package mem

import (
	"fmt"

	"codesign/internal/sim"
)

// DRAM is the node main memory as a streaming device for the FPGA. The
// processor's own accesses are folded into its sustained compute rates
// (as the paper does); only FPGA-side streams are charged explicitly.
type DRAM struct {
	eng *sim.Engine
	// BandwidthBytes is Bd, the FPGA-visible DRAM bandwidth in bytes/s.
	BandwidthBytes float64
	chann          *sim.Resource
	bytesStreamed  int64
	dilate         func(start, dt float64) float64
}

// NewDRAM creates a DRAM with the given FPGA-visible bandwidth and a
// single streaming channel (transfers serialize, as on the RapidArray
// processor port).
func NewDRAM(e *sim.Engine, bandwidthBytes float64) *DRAM {
	if bandwidthBytes <= 0 {
		panic(fmt.Sprintf("mem: non-positive DRAM bandwidth %g", bandwidthBytes))
	}
	chann := sim.NewResource(e, "dram-stream", 1)
	chann.SetDevice(sim.DeviceDRAM)
	return &DRAM{eng: e, BandwidthBytes: bandwidthBytes, chann: chann}
}

// StreamTime returns the unloaded time to stream the given bytes.
func (d *DRAM) StreamTime(bytes int) float64 { return float64(bytes) / d.BandwidthBytes }

// SetDilation installs a fault-injection hook mapping a nominal stream
// duration starting at virtual time start to its degraded duration (a
// Bd throttle). Nil removes the hook; the hot path is untouched when
// none is installed.
func (d *DRAM) SetDilation(f func(start, dt float64) float64) { d.dilate = f }

// Dilated applies the installed dilation hook to a nominal duration
// (identity when no hook is installed). Exposed so charges modeled off
// the DRAM path — the accelerator's operand fill lag — degrade with the
// same Bd faults as explicit streams.
func (d *DRAM) Dilated(start, dt float64) float64 {
	if d.dilate == nil {
		return dt
	}
	return d.dilate(start, dt)
}

// Stream transfers bytes between DRAM and the FPGA, blocking the calling
// process for bytes/Bd plus any channel queueing. The transfer is
// emitted as a DMA span carrying the payload size.
func (d *DRAM) Stream(p *sim.Proc, bytes int) {
	if bytes < 0 {
		panic(fmt.Sprintf("mem: negative stream size %d", bytes))
	}
	d.bytesStreamed += int64(bytes)
	d.chann.UseCat(p, sim.CatDMA, int64(bytes), d.Dilated(d.eng.Now(), d.StreamTime(bytes)))
}

// BytesStreamed returns the cumulative FPGA<->DRAM traffic.
func (d *DRAM) BytesStreamed() int64 { return d.bytesStreamed }

// BusySeconds returns cumulative busy time of the streaming channel.
func (d *DRAM) BusySeconds() float64 { return d.chann.BusySeconds() }

// AchievedBandwidth returns the average streamed bytes per second of
// virtual time so far — comparable against the peak BandwidthBytes
// (Bd) to see how much of the channel the run actually used.
func (d *DRAM) AchievedBandwidth() float64 {
	if d.eng.Now() <= 0 {
		return 0
	}
	return float64(d.bytesStreamed) / d.eng.Now()
}

// ContentionSeconds returns total virtual time processes queued on the
// streaming channel.
func (d *DRAM) ContentionSeconds() float64 { return d.chann.ContentionSeconds() }

// SRAM is the FPGA's on-board QDR-II memory: a fixed number of banks of
// fixed capacity.
type SRAM struct {
	// Banks is the number of QDR-II banks.
	Banks int
	// BytesPerBank is the capacity of one bank in bytes.
	BytesPerBank int64
}

// NewSRAM creates an SRAM with the given geometry.
func NewSRAM(banks int, bytesPerBank int64) *SRAM {
	if banks < 1 || bytesPerBank < 1 {
		panic("mem: bad SRAM geometry")
	}
	return &SRAM{Banks: banks, BytesPerBank: bytesPerBank}
}

// TotalBytes returns the total capacity.
func (s *SRAM) TotalBytes() int64 { return int64(s.Banks) * s.BytesPerBank }
