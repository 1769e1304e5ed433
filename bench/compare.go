package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// compareMain implements `bench compare BASE.json HEAD.json`: paired
// runs of the parent commit (BASE) and the change (HEAD), each file a
// stream of results.json documents (concatenate them with cat; an
// all-workloads results.json array also works). Runs pair in file
// order within each workload and trace mode, so run the two sides
// alternately with the same seeds. Every workload and metric gets its
// own row and verdict.
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: compare [-spec BENCHMARK.json] BASE.json HEAD.json")
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	base, err := readRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	head, err := readRuns(fs.Arg(1))
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\thead median [q1, q3]\thead wins\tverdict")
	for _, key := range sortedKeys(base) {
		b, h := base[key], head[key]
		n := min(len(b), len(h))
		if n == 0 {
			continue
		}
		for _, name := range sortedKeys(b[0].Metrics) {
			ms, ok := spec[name]
			if !ok {
				continue
			}
			var bv, hv []float64
			for i := 0; i < n; i++ {
				x, okB := b[i].Metrics[name]
				y, okH := h[i].Metrics[name]
				if okB && okH {
					bv, hv = append(bv, x.Value), append(hv, y.Value)
				}
			}
			if len(bv) == 0 {
				continue
			}
			v := judge(bv, hv, ms.Better == "higher", ms.Bound)
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%d/%d\t%s\n",
				key, name, v.baseMed, v.baseQ1, v.baseQ3, v.headMed, v.headQ1, v.headQ3, v.wins, len(bv), v.verdict)
		}
	}
	return tw.Flush()
}

// metricSpec is one metric's entry in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics, which have none
}

func readSpec(path string) (map[string]metricSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	spec := map[string]metricSpec{}
	for _, m := range append(doc.EndToEnd, doc.PerLayer...) {
		spec[m.Name] = m
	}
	return spec, nil
}

// readRuns reads a stream of run reports, grouped by workload (with a
// "/trace" suffix for traced runs) in file order.
func readRuns(path string) (map[string][]report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string][]report{}
	add := func(r report) {
		key := r.Workload
		if r.Trace {
			key += "/trace"
		}
		out[key] = append(out[key], r)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if bytes.HasPrefix(bytes.TrimSpace(raw), []byte("[")) {
			var rs []report
			if err := json.Unmarshal(raw, &rs); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			for _, r := range rs {
				add(r)
			}
			continue
		}
		var r report
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		add(r)
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// verdict is one metric's comparison.
type verdict struct {
	verdict                 string
	wins                    int
	baseMed, baseQ1, baseQ3 float64
	headMed, headQ1, headQ3 float64
}

// minPairs is the fewest pairs a "better" or "worse" claim from the
// pairing rule may rest on.
const minPairs = 10

// judge applies the paired-run rule to base[i] and head[i], i = run.
//
//   - better: the head wins at least 9 in 10 pairs (ties count for
//     neither side) over at least minPairs pairs, and the medians differ
//     in its favour by more than the base's interquartile range;
//   - unresolved: the base's own spread (IQR over median) is wider than
//     the bound, and not every head run beats every base run; also, for
//     a metric without a bound, too few pairs to decide;
//   - worse: the head median is worse than the base median by more than
//     the bound; for a metric without a bound, the pairing rule with the
//     sides swapped;
//   - unchanged: otherwise.
func judge(base, head []float64, higherBetter bool, bound float64) verdict {
	v := verdict{baseMed: median(base), headMed: median(head)}
	v.baseQ1, v.baseQ3 = quartiles(base)
	v.headQ1, v.headQ3 = quartiles(head)
	sign := 1.0 // +1 when a larger value is better
	if !higherBetter {
		sign = -1
	}
	losses := 0
	for i := range base {
		switch d := sign * (head[i] - base[i]); {
		case d > 0:
			v.wins++
		case d < 0:
			losses++
		}
	}
	n := len(base)
	iqr := v.baseQ3 - v.baseQ1
	gain := sign * (v.headMed - v.baseMed) // > 0 when the head is better
	switch {
	case n >= minPairs && 10*v.wins >= 9*n && gain > iqr:
		v.verdict = "better"
	case bound > 0:
		scale := math.Abs(v.baseMed)
		allBetter := sign*(extreme(head, -sign)-extreme(base, sign)) > 0
		switch {
		case iqr > bound*scale && !allBetter:
			v.verdict = "unresolved"
		case -gain > bound*scale:
			v.verdict = "worse"
		default:
			v.verdict = "unchanged"
		}
	case n < minPairs:
		v.verdict = "unresolved"
	case 10*losses >= 9*n && -gain > iqr:
		v.verdict = "worse"
	default:
		v.verdict = "unchanged"
	}
	return v
}

// extreme returns the largest sample for dir > 0, the smallest for
// dir < 0.
func extreme(xs []float64, dir float64) float64 {
	e := xs[0]
	for _, x := range xs[1:] {
		if dir*(x-e) > 0 {
			e = x
		}
	}
	return e
}
