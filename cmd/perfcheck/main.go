// Command perfcheck compares `go test -bench -benchmem` output against
// the committed wall-clock baseline BENCH_speed.json, so CI catches
// performance regressions in the simulator hot path the way the
// metrics baseline (BENCH_baseline.json) catches behavior drift.
//
// Times on shared CI runners are noisy, so the time gate is
// deliberately loose (-time-tol, default 3x) and exists to catch
// order-of-magnitude regressions like an accidental re-introduction of
// per-event allocation. Allocation counts are deterministic, so the
// allocs/op gate is tight (-tol, default 1.5x). Benchmarks present in
// the output but absent from the baseline are ignored; baseline
// entries missing from the output fail, so the gate cannot silently
// erode when benchmarks are renamed.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem ./... | go run ./cmd/perfcheck
//	go run ./cmd/perfcheck -update bench.txt   # regenerate the baseline
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed BENCH_speed.json document.
type Baseline struct {
	Schema int `json:"schema"`
	// Note documents how to regenerate the file.
	Note string `json:"note"`
	// Benchmarks maps "<package>.<BenchmarkName>" to its measurements.
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// Entry is one benchmark's committed measurements.
type Entry struct {
	NsOp     float64 `json:"ns_op"`
	AllocsOp float64 `json:"allocs_op,omitempty"`
}

// regenerateNote is the Note -update writes: the commands that produce
// the benchmark output the CI perf job gates, so following it
// regenerates every entry the check expects.
const regenerateNote = "Wall-clock perf baseline. Regenerate: " +
	"go test -run '^$' -bench 'BenchmarkHeadline|BenchmarkSimEngine|BenchmarkLUFullSimulation|BenchmarkFWFullSimulation|BenchmarkDesignSpaceSweep|BenchmarkSpMVSweep|BenchmarkSolveCached' -benchtime=10x -benchmem . > bench.txt" +
	" && go test -run '^$' -bench 'BenchmarkScreenedSweep' -benchtime=1x -benchmem . >> bench.txt" +
	" && go test -run '^$' -bench . -benchtime=100x -benchmem ./internal/sim/ >> bench.txt" +
	" && go test -run '^$' -bench 'BenchmarkRandomSparse' -benchtime=10x -benchmem ./internal/matrix/ >> bench.txt" +
	" && go run ./cmd/perfcheck -update bench.txt"

// parseBench extracts "<pkg>.<BenchmarkName>" -> Entry from `go test
// -bench` output. Benchmark names are normalized by stripping the
// -GOMAXPROCS suffix (see procsSuffix) and any /subtest separator stays
// intact; "pkg:" lines qualify subsequent benchmarks. A measurement
// that is not a finite, non-negative number is an error naming its
// line, since the ratio gates in check would silently pass it.
func parseBench(r io.Reader) (map[string]Entry, error) {
	type result struct {
		pkg, name string
		e         Entry
	}
	var results []result
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		e := Entry{}
		seen := false
		// Fields come in "<value> <unit>" pairs after the iteration count.
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("perfcheck: line %d: bad value %q in %q", lineNo, f[i], line)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return nil, fmt.Errorf("perfcheck: line %d: %s %s is not a finite non-negative measurement in %q",
					lineNo, f[i], f[i+1], line)
			}
			switch f[i+1] {
			case "ns/op":
				e.NsOp = v
				seen = true
			case "allocs/op":
				e.AllocsOp = v
			}
		}
		if seen {
			results = append(results, result{pkg, f[0], e})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	names := make([]string, len(results))
	for i, res := range results {
		names[i] = res.name
	}
	suffix := procsSuffix(names)
	out := make(map[string]Entry, len(results))
	for _, res := range results {
		key := strings.TrimSuffix(res.name, suffix)
		if res.pkg != "" {
			key = res.pkg + "." + key
		}
		out[key] = res.e
	}
	return out, nil
}

// procsSuffix returns the "-N" suffix every name ends in, or "" when
// they do not all end in the same one. `go test` appends -N to every
// benchmark name when it runs at one GOMAXPROCS N > 1, and nothing at
// GOMAXPROCS 1, so a name such as BenchmarkX/d=1e-5 keeps its digits
// unless every other line carries the same suffix too.
func procsSuffix(names []string) string {
	suffix := ""
	for _, name := range names {
		i := strings.LastIndex(name, "-")
		if i <= 0 || i == len(name)-1 || strings.Trim(name[i+1:], "0123456789") != "" {
			return ""
		}
		if suffix != "" && name[i:] != suffix {
			return ""
		}
		suffix = name[i:]
	}
	return suffix
}

// check compares measured entries against the baseline and returns the
// failures, one line each.
func check(base Baseline, got map[string]Entry, timeTol, allocTol float64) []string {
	var fails []string
	keys := make([]string, 0, len(base.Benchmarks))
	for k := range base.Benchmarks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		want := base.Benchmarks[k]
		have, ok := got[k]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: missing from benchmark output", k))
			continue
		}
		// Ratio gates are undefined against a zero baseline, so each
		// metric handles zero explicitly instead of multiplying into a
		// vacuous bound. A zero ns/op baseline carries no information
		// (benchmarks cannot take zero time) and is skipped; a zero
		// allocs/op baseline is a meaningful promise — the zero-allocation
		// hot path — and gates absolutely: any measured allocation is a
		// regression no tolerance can excuse.
		if want.NsOp > 0 && have.NsOp > want.NsOp*timeTol {
			fails = append(fails, fmt.Sprintf("%s: %.0f ns/op exceeds baseline %.0f ns/op x %.2g tolerance",
				k, have.NsOp, want.NsOp, timeTol))
		}
		if want.AllocsOp == 0 {
			if have.AllocsOp > 0 {
				fails = append(fails, fmt.Sprintf("%s: %.0f allocs/op regressed from a zero-alloc baseline",
					k, have.AllocsOp))
			}
		} else if have.AllocsOp > want.AllocsOp*allocTol {
			fails = append(fails, fmt.Sprintf("%s: %.0f allocs/op exceeds baseline %.0f allocs/op x %.2g tolerance",
				k, have.AllocsOp, want.AllocsOp, allocTol))
		}
	}
	return fails
}

func run() error {
	baseline := flag.String("baseline", "BENCH_speed.json", "baseline file to compare against (or rewrite with -update)")
	timeTol := flag.Float64("time-tol", 3.0, "allowed ns/op ratio over baseline (loose: CI timing is noisy)")
	allocTol := flag.Float64("tol", 1.5, "allowed allocs/op ratio over baseline")
	update := flag.Bool("update", false, "rewrite the baseline from the benchmark output instead of checking")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	got, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(got) == 0 {
		return fmt.Errorf("perfcheck: no benchmark results in input")
	}

	if *update {
		doc := Baseline{
			Schema:     1,
			Note:       regenerateNote,
			Benchmarks: got,
		}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(*baseline, append(b, '\n'), 0o644)
	}

	raw, err := os.ReadFile(*baseline)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("perfcheck: %s: %w", *baseline, err)
	}
	fails := check(base, got, *timeTol, *allocTol)
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, "FAIL", f)
	}
	if len(fails) > 0 {
		return fmt.Errorf("perfcheck: %d benchmark(s) regressed past tolerance", len(fails))
	}
	fmt.Printf("perfcheck: %d baseline benchmark(s) within tolerance (time x%.2g, allocs x%.2g)\n",
		len(base.Benchmarks), *timeTol, *allocTol)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
