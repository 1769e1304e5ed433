package exper

import (
	"fmt"

	"codesign/internal/core"
	"codesign/internal/fault"
)

// degradedScenario is one fault-injection configuration of the
// degraded-mode study.
type degradedScenario struct {
	app  string // a registered app that accepts faults
	name string
	spec *fault.Spec
}

// degradedScenarios are the representative off-nominal conditions the
// Degraded table measures: one per fault class the injector models.
func degradedScenarios() []degradedScenario {
	return []degradedScenario{
		{"lu", "bd-throttle", &fault.Spec{
			Window: 50,
			Events: []fault.Event{{Kind: fault.ThrottleBd, Node: 1, Start: 100, Duration: 500, Factor: 0.25}},
		}},
		{"lu", "cpu-straggler", &fault.Spec{
			Window: 50,
			Events: []fault.Event{{Kind: fault.CPUSlow, Node: 2, Start: 150, Duration: 600, Factor: 0.4}},
		}},
		{"lu", "fpga-stall", &fault.Spec{
			Window: 50,
			Events: []fault.Event{{Kind: fault.FPGAStall, Node: 4, Start: 200, Duration: 120}},
		}},
		{"lu", "node-kill", &fault.Spec{
			Events: []fault.Event{{Kind: fault.NodeKill, Node: 3, Start: 300}},
		}},
		{"fw", "cpu-straggler", &fault.Spec{
			Events: []fault.Event{{Kind: fault.CPUSlow, Node: 0, Start: 100, Duration: 800, Factor: 0.3}},
		}},
		{"fw", "bn-throttle", &fault.Spec{
			Events: []fault.Event{{Kind: fault.ThrottleBn, Node: 2, Start: 200, Duration: 600, Factor: 0.5}},
		}},
	}
}

// Degraded runs the degraded-mode study: each fault scenario simulated
// with the observed-telemetry detector and with the oracle detector,
// reporting makespan inflation over the fault-free run, repartition
// counts and node losses. Every run is deterministic, so the table is
// reproducible bit-exactly.
func Degraded() (*Table, error) {
	t := &Table{
		ID:     "degraded",
		Title:  "Degraded-mode repartitioning under injected faults (XD1, 6 nodes)",
		Header: []string{"app", "scenario", "detector", "seconds", "inflation", "repart", "dead"},
		Notes: []string{
			"lu: n=30000, b=3000 hybrid; fw: n=18432, b=256 hybrid",
			"inflation = makespan over the fault-free run of the same app",
			"oracle rows repartition against the configured ground truth at the first iteration boundary",
		},
	}
	base := map[string]float64{}
	for _, app := range []string{"lu", "fw"} {
		seconds, _, _, err := runDegraded(app, nil)
		if err != nil {
			return nil, err
		}
		base[app] = seconds
		t.Rows = append(t.Rows, []string{app, "nominal", "-", f2(seconds), "-", "0", "-"})
	}

	for _, sc := range degradedScenarios() {
		for _, det := range []string{"observed", "oracle"} {
			spec := sc.spec
			if det == "oracle" {
				spec = spec.WithOracle()
			}
			seconds, reparts, dead, err := runDegraded(sc.app, spec)
			if err != nil {
				return nil, fmt.Errorf("exper: degraded %s/%s/%s: %w", sc.app, sc.name, det, err)
			}
			deadCell := "-"
			if len(dead) > 0 {
				deadCell = fmt.Sprint(dead)
			}
			t.Rows = append(t.Rows, []string{sc.app, sc.name, det, f2(seconds),
				fmt.Sprintf("+%.1f%%", 100*(seconds/base[sc.app]-1)),
				fmt.Sprint(reparts), deadCell})
		}
	}
	return t, nil
}

// runDegraded simulates one app at its paper size under one fault spec
// (nil = fault-free). Injectors are stateful, so a fresh one is built
// per run.
func runDegraded(app string, spec *fault.Spec) (seconds float64, reparts int, dead []int, err error) {
	a, err := core.LookupApp(app)
	if err != nil {
		return 0, 0, nil, err
	}
	s := core.Spec{N: a.N, B: a.B, BF: -1, L: -1, L1: -1, Mode: core.Hybrid}
	if spec != nil {
		if s.Faults, err = fault.New(spec, 6); err != nil {
			return 0, 0, nil, err
		}
	}
	r, err := a.Run(s)
	if err != nil {
		return 0, 0, nil, err
	}
	return r.Seconds, len(r.Repartitions), r.DeadNodes, nil
}
