package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
)

// Kind names one fault mechanism.
type Kind string

// The supported fault kinds.
const (
	// ThrottleBd throttles a node's FPGA-DRAM streaming bandwidth to
	// Factor of nominal for the event window.
	ThrottleBd Kind = "throttle-bd"
	// ThrottleBn throttles a node's outbound network bandwidth to
	// Factor of nominal for the event window.
	ThrottleBn Kind = "throttle-bn"
	// CPUSlow slows a node's processor (a straggler) to Factor of
	// nominal for the event window.
	CPUSlow Kind = "cpu-slow"
	// FPGAStall stalls a node's FPGA completely for the event window —
	// a partial-reconfiguration outage. Factor is ignored (it is 0),
	// and Duration must be positive.
	FPGAStall Kind = "fpga-stall"
	// NodeKill removes a node permanently at Start. The node drains
	// the iteration it is in (fail-stop at the next iteration
	// boundary) and never rejoins; Factor and Duration are ignored.
	NodeKill Kind = "node-kill"
)

// class maps a kind to the machine subsystem it degrades.
func (k Kind) class() (Class, bool) {
	switch k {
	case ThrottleBd:
		return ClassDRAM, true
	case ThrottleBn:
		return ClassNet, true
	case CPUSlow:
		return ClassCPU, true
	case FPGAStall:
		return ClassFPGA, true
	}
	return 0, false
}

// Event is one scheduled fault.
type Event struct {
	// Kind selects the mechanism.
	Kind Kind `json:"kind"`
	// Node is the target node (0-based).
	Node int `json:"node"`
	// Start is the virtual time the fault begins, in seconds.
	Start float64 `json:"start"`
	// Duration is the window length in seconds; 0 means until the end
	// of the run (except for fpga-stall, which requires a positive
	// duration, and node-kill, which ignores it).
	Duration float64 `json:"duration,omitempty"`
	// Factor is the fraction of the nominal rate delivered during the
	// window, in (0, 1]. Ignored by fpga-stall (0) and node-kill.
	Factor float64 `json:"factor,omitempty"`
}

// Random describes a batch of probabilistic events, expanded
// deterministically from the spec seed when the injector is built.
type Random struct {
	// Kind selects the mechanism for every generated event.
	Kind Kind `json:"kind"`
	// Count is how many events to generate.
	Count int `json:"count"`
	// Node pins every generated event to one node; -1 (the default
	// for omitted) draws the node uniformly. Note the zero value pins
	// to node 0 — use -1 explicitly for "any node" in Go literals.
	Node int `json:"node"`
	// Horizon bounds the drawn start times to [0, Horizon) seconds.
	Horizon float64 `json:"horizon"`
	// MeanDuration is the center of the drawn window length; each
	// event's duration is uniform in [0.5, 1.5]×MeanDuration.
	MeanDuration float64 `json:"mean_duration,omitempty"`
	// MinFactor is the lower bound of the drawn rate factor.
	MinFactor float64 `json:"min_factor,omitempty"`
	// MaxFactor is the upper bound of the drawn rate factor.
	MaxFactor float64 `json:"max_factor,omitempty"`
}

// Spec is the JSON fault specification accepted by hybridsim -faults.
type Spec struct {
	// Seed drives the expansion of Random entries.
	Seed int64 `json:"seed"`
	// Threshold is the sustained-divergence detection threshold: a
	// repartition is considered once an observed rate factor deviates
	// from the currently applied one by more than this. 0 means the
	// default (0.05).
	Threshold float64 `json:"threshold,omitempty"`
	// Window is the minimum virtual time a divergence must persist
	// before the partitions are re-solved. 0 means the default (1 s).
	Window float64 `json:"window,omitempty"`
	// Oracle switches detection from observed telemetry to the
	// configured ground truth with zero lag — the "knew the fault in
	// advance" reference the resilience report compares against.
	Oracle bool `json:"oracle,omitempty"`
	// Events are scheduled faults.
	Events []Event `json:"events,omitempty"`
	// Random are probabilistic fault batches.
	Random []Random `json:"random,omitempty"`
}

// MaxEvents bounds the events a spec may expand to, its scheduled
// events plus every Random batch. Real scenarios use a handful; the
// bound keeps a mistyped Count from exhausting memory, and keeps New's
// overlap flattening, quadratic in one node's windows, to milliseconds.
const MaxEvents = 1000

// DefaultThreshold and DefaultWindow are the detection tuning used when
// the spec leaves Threshold/Window at zero.
const (
	DefaultThreshold = 0.05
	DefaultWindow    = 1.0
)

// Parse decodes a Spec from JSON, rejecting unknown fields so typos in
// hand-written specs fail loudly.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("fault: parse spec: %w", err)
	}
	return &s, nil
}

// Load reads and parses a Spec from a JSON file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	return Parse(data)
}

// WithOracle returns a copy of the spec with Oracle detection enabled —
// the reference configuration for recovery-lag measurements.
func (s *Spec) WithOracle() *Spec {
	c := *s
	c.Oracle = true
	return &c
}

// validateEvent checks one (possibly generated) event against the node
// count.
func validateEvent(e Event, nodes int) error {
	if e.Node < 0 || e.Node >= nodes {
		return fmt.Errorf("event %s: node %d out of range [0,%d)", e.Kind, e.Node, nodes)
	}
	if e.Start < 0 {
		return fmt.Errorf("event %s on node %d: negative start %g", e.Kind, e.Node, e.Start)
	}
	if e.Duration < 0 {
		return fmt.Errorf("event %s on node %d: negative duration %g", e.Kind, e.Node, e.Duration)
	}
	switch e.Kind {
	case ThrottleBd, ThrottleBn, CPUSlow:
		if e.Factor <= 0 || e.Factor > 1 {
			return fmt.Errorf("event %s on node %d: factor %g outside (0,1]", e.Kind, e.Node, e.Factor)
		}
	case FPGAStall:
		if e.Duration <= 0 {
			return fmt.Errorf("fpga-stall on node %d needs a positive duration", e.Node)
		}
	case NodeKill:
		// Start alone matters.
	default:
		return fmt.Errorf("unknown event kind %q", e.Kind)
	}
	return nil
}

// expand validates the spec against the node count and returns the full
// deterministic event list: scheduled events plus Random batches drawn
// from the seed, sorted by (start, node, kind).
func (s *Spec) expand(nodes int) ([]Event, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("fault: need at least one node, got %d", nodes)
	}
	if s.Threshold < 0 {
		return nil, fmt.Errorf("fault: negative detection threshold %g", s.Threshold)
	}
	if s.Window < 0 {
		return nil, fmt.Errorf("fault: negative detection window %g", s.Window)
	}
	events := make([]Event, 0, len(s.Events))
	for i, e := range s.Events {
		if err := validateEvent(e, nodes); err != nil {
			return nil, fmt.Errorf("fault: events[%d]: %w", i, err)
		}
		events = append(events, e)
	}
	rng := rand.New(rand.NewSource(s.Seed))
	for i, r := range s.Random {
		if r.Count < 0 {
			return nil, fmt.Errorf("fault: random[%d]: negative count %d", i, r.Count)
		}
		if r.Count > 0 && r.Horizon <= 0 {
			return nil, fmt.Errorf("fault: random[%d]: non-positive horizon %g", i, r.Horizon)
		}
		if r.Count > MaxEvents-len(events) {
			return nil, fmt.Errorf("fault: random[%d]: count %d takes the spec past %d events", i, r.Count, MaxEvents)
		}
		for j := 0; j < r.Count; j++ {
			e := Event{Kind: r.Kind, Node: r.Node, Start: rng.Float64() * r.Horizon}
			if e.Node < 0 {
				e.Node = rng.Intn(nodes)
			}
			if r.MeanDuration > 0 {
				e.Duration = r.MeanDuration * (0.5 + rng.Float64())
			}
			if r.MaxFactor > 0 {
				e.Factor = r.MinFactor + rng.Float64()*(r.MaxFactor-r.MinFactor)
			}
			if err := validateEvent(e, nodes); err != nil {
				return nil, fmt.Errorf("fault: random[%d] event %d: %w", i, j, err)
			}
			events = append(events, e)
		}
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].Start != events[b].Start {
			return events[a].Start < events[b].Start
		}
		if events[a].Node != events[b].Node {
			return events[a].Node < events[b].Node
		}
		return events[a].Kind < events[b].Kind
	})
	return events, nil
}
