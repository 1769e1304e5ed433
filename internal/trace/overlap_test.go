package trace

import (
	"testing"

	"codesign/internal/sim"
)

func TestEfficiencyZeroData(t *testing.T) {
	// A run that moved no data hid all of it trivially.
	o := Overlap{Makespan: 10, BusyTf: 10, Tf: 10}
	if got := o.Efficiency(); got != 1 {
		t.Fatalf("zero-data efficiency %v, want 1", got)
	}
	if got := (Overlap{}).Efficiency(); got != 1 {
		t.Fatalf("empty overlap efficiency %v, want 1", got)
	}
}

func TestEfficiencyFullyExposed(t *testing.T) {
	// Every busy transfer second is exposed: nothing was hidden.
	o := Overlap{Makespan: 10, BusyTmem: 4, BusyTcomm: 2, Tmem: 4, Tcomm: 2}
	if got := o.Efficiency(); got != 0 {
		t.Fatalf("fully-exposed efficiency %v, want 0", got)
	}
	// Half hidden.
	o = Overlap{Makespan: 10, BusyTmem: 4, Tmem: 2}
	if got := o.Efficiency(); got != 0.5 {
		t.Fatalf("half-hidden efficiency %v, want 0.5", got)
	}
}

func TestClassifyUsesDeviceTag(t *testing.T) {
	cases := []struct {
		name string
		s    sim.SpanEvent
		want SpanClass
	}{
		// The device tag classifies compute regardless of the resource
		// name: an accelerator named "drc0" (no "fpga" prefix) is still
		// FPGA time.
		{"fpga tag, non-fpga name", sim.SpanEvent{Category: sim.CatCompute, Device: sim.DeviceFPGA, Resource: "drc0"}, ClassTf},
		{"fpga tag, fpga name", sim.SpanEvent{Category: sim.CatCompute, Device: sim.DeviceFPGA, Resource: "fpga0"}, ClassTf},
		{"cpu tag", sim.SpanEvent{Category: sim.CatCompute, Device: sim.DeviceCPU, Resource: "cpu0"}, ClassTp},
		// A CPU-tagged resource named "fpga-helper" must NOT classify
		// as FPGA time: the tag wins over the name convention.
		{"cpu tag, fpga-ish name", sim.SpanEvent{Category: sim.CatCompute, Device: sim.DeviceCPU, Resource: "fpga-helper"}, ClassTp},
		// Untagged spans fall back to the name convention.
		{"untagged fpga name", sim.SpanEvent{Category: sim.CatCompute, Resource: "fpga3"}, ClassTf},
		{"untagged cpu name", sim.SpanEvent{Category: sim.CatCompute, Resource: "cpu3"}, ClassTp},
		{"dma", sim.SpanEvent{Category: sim.CatDMA, Device: sim.DeviceDRAM, Resource: "dram-stream"}, ClassTmem},
		{"network", sim.SpanEvent{Category: sim.CatNetwork, Device: sim.DeviceLink, Resource: "egress0"}, ClassTcomm},
		{"sync", sim.SpanEvent{Category: sim.CatSync, Device: sim.DeviceFPGA, Resource: "fpga0"}, ClassSync},
	}
	for _, c := range cases {
		if got := Classify(c.s); got != c.want {
			t.Errorf("%s: classified %v, want %v", c.name, got, c.want)
		}
	}
}
