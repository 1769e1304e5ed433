package sim

import "fmt"

// Category classifies a typed span of simulated activity. The categories
// mirror the co-design model's cost terms: computation (Tp on a
// processor, Tf on an FPGA array), DRAM streaming (Tmem), network
// communication (Tcomm), and waiting — either queued on a contended
// resource (Sync) or with nothing to do (Idle). Idle is never emitted by
// the engine; it is what remains of a timeline after the other
// categories are accounted, and exists so consumers can label it.
type Category int

// The span categories.
const (
	// CatCompute is time a processor or FPGA array spends computing.
	CatCompute Category = iota
	// CatDMA is time spent streaming data between DRAM and the FPGA.
	CatDMA
	// CatNetwork is time spent moving bytes over the interconnect,
	// including the processor-side pack/unpack it cannot overlap.
	CatNetwork
	// CatSync is time spent queued on a saturated resource.
	CatSync
	// CatIdle is unattributed time (derived, never emitted).
	CatIdle
)

// String names the category ("compute", "dma", "network", ...).
func (c Category) String() string {
	switch c {
	case CatCompute:
		return "compute"
	case CatDMA:
		return "dma"
	case CatNetwork:
		return "network"
	case CatSync:
		return "sync"
	case CatIdle:
		return "idle"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// ParseCategory is the inverse of Category.String: it maps a category
// name ("compute", "dma", "network", "sync", "idle") back to the typed
// constant. Persisted span streams carry category names, so readers use
// it to rebuild typed spans.
func ParseCategory(s string) (Category, error) {
	switch s {
	case "compute":
		return CatCompute, nil
	case "dma":
		return CatDMA, nil
	case "network":
		return CatNetwork, nil
	case "sync":
		return CatSync, nil
	case "idle":
		return CatIdle, nil
	default:
		return 0, fmt.Errorf("unknown span category %q", s)
	}
}

// Device identifies the kind of hardware a span occupied, independent
// of the resource's name. Spans carry it so consumers classify activity
// (FPGA compute vs processor compute, DRAM vs network traffic) without
// parsing resource-name conventions — a machine config is free to name
// its accelerator "drc0" or "mapstation" and still classify correctly.
type Device int

// The device kinds of a reconfigurable computing system node.
const (
	// DeviceUnknown marks spans whose emitter declared no device.
	DeviceUnknown Device = iota
	// DeviceCPU is a node processor.
	DeviceCPU
	// DeviceFPGA is an FPGA compute array.
	DeviceFPGA
	// DeviceDRAM is a DRAM streaming channel.
	DeviceDRAM
	// DeviceLink is a fabric (interconnect) link.
	DeviceLink
)

// String names the device kind ("cpu", "fpga", "dram", "link").
func (d Device) String() string {
	switch d {
	case DeviceUnknown:
		return "unknown"
	case DeviceCPU:
		return "cpu"
	case DeviceFPGA:
		return "fpga"
	case DeviceDRAM:
		return "dram"
	case DeviceLink:
		return "link"
	default:
		return fmt.Sprintf("device(%d)", int(d))
	}
}

// ParseDevice is the inverse of Device.String. The empty string maps to
// DeviceUnknown, matching persisted streams that omit the device tag
// (older CSV dumps have no device column at all).
func ParseDevice(s string) (Device, error) {
	switch s {
	case "", "unknown":
		return DeviceUnknown, nil
	case "cpu":
		return DeviceCPU, nil
	case "fpga":
		return DeviceFPGA, nil
	case "dram":
		return DeviceDRAM, nil
	case "link":
		return DeviceLink, nil
	default:
		return 0, fmt.Errorf("unknown span device %q", s)
	}
}

// SpanEvent is one completed interval of typed activity, emitted when
// the interval ends. Start and End are virtual times; Bytes is the
// payload a data-movement span carried (0 for compute and waiting).
// Phase is the process's phase annotation at emission time (see
// Proc.SetPhase); Resource names the resource the span occupied and
// Device tags what kind of hardware that resource is.
type SpanEvent struct {
	// Category classifies the activity (compute, DMA, network, sync).
	Category Category
	// Device tags the hardware kind the span occupied.
	Device Device
	// Proc names the emitting process.
	Proc string
	// Resource names the resource the span occupied ("" if none).
	Resource string
	// Phase is the process's phase annotation at emission time.
	Phase string
	// Bytes is the payload a data-movement span carried (0 otherwise).
	Bytes int64
	// Start and End bound the interval in virtual seconds.
	Start, End float64
}

// Duration returns End - Start.
func (s SpanEvent) Duration() float64 { return s.End - s.Start }

// Observer receives the engine's structured telemetry stream. Both
// methods are called from scheduler or process context while the
// simulation runs, one call at a time (from Run or the one running
// process) and in a deterministic order, so implementations need no
// locking.
//
// Event receives the raw engine actions (one call per process
// resume/block); Span delivers completed typed spans. An observer that
// cares about only one stream implements the other as a no-op.
type Observer interface {
	// Event receives one raw engine action (resume, block) as it
	// happens.
	Event(t float64, proc, action string)
	// Span receives one completed typed span as its interval ends.
	Span(s SpanEvent)
}

// Observe registers an observer. Observers are notified in registration
// order; a nil observer is ignored.
func (e *Engine) Observe(o Observer) {
	if o == nil {
		return
	}
	e.observers = append(e.observers, o)
}

// EmitSpan delivers a completed typed span to every observer. Callers
// that synthesize their own spans (outside the Proc.WaitSpan and
// Resource paths) may use it directly.
func (e *Engine) EmitSpan(s SpanEvent) {
	if e.ctr != nil {
		e.ctr.SpansEmitted.Add(1)
	}
	for _, o := range e.observers {
		o.Span(s)
	}
}

// observing reports whether any observer is registered, so hot paths
// can skip span construction entirely when nobody listens.
func (e *Engine) observing() bool { return len(e.observers) > 0 }

// emitEvent dispatches one raw engine action to every observer.
func (e *Engine) emitEvent(t float64, proc, action string) {
	for _, o := range e.observers {
		o.Event(t, proc, action)
	}
}

// SetPhase annotates the process with a phase label ("panel",
// "broadcast", "opmm", ...). Spans emitted while the label is set carry
// it, so exporters can group activity by algorithm phase. An empty
// string clears the annotation.
func (p *Proc) SetPhase(phase string) { p.phase = phase }

// Phase returns the current phase annotation.
func (p *Proc) Phase() string { return p.phase }

// WaitSpan advances virtual time by dt seconds like Wait and emits a
// typed span covering the interval. Resource names what the time was
// spent on; bytes annotates data movement (pass 0 otherwise). The span
// carries DeviceUnknown; use WaitSpanOn when the device kind is known.
func (p *Proc) WaitSpan(cat Category, resource string, bytes int64, dt float64) {
	p.WaitSpanOn(cat, DeviceUnknown, resource, bytes, dt)
}

// WaitSpanOn is WaitSpan with an explicit device-kind tag on the
// emitted span.
func (p *Proc) WaitSpanOn(cat Category, dev Device, resource string, bytes int64, dt float64) {
	if dt < 0 {
		dt = 0
	}
	start := p.eng.now
	p.Wait(dt)
	if p.eng.observing() {
		p.eng.EmitSpan(SpanEvent{
			Category: cat, Device: dev, Proc: p.name, Resource: resource,
			Phase: p.phase, Bytes: bytes, Start: start, End: p.eng.now,
		})
	}
}
