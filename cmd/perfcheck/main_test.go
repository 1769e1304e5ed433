package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: codesign
cpu: AMD EPYC
BenchmarkSimEngine-8   	     500	   2507540 ns/op	    3312 B/op	      32 allocs/op
BenchmarkHeadline-8    	       1	1594057152 ns/op	1835753 allocs/op
BenchmarkDesignSpaceSweep/sim-8         	      10	  15800000 ns/op	 2989881 B/op	   51610 allocs/op
PASS
ok  	codesign	12.3s
pkg: codesign/internal/sim
BenchmarkEventLoopSelf-8   	     200	     25961 ns/op	  38529573 events/s	    1520 B/op	       8 allocs/op
PASS
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		key            string
		nsOp, allocsOp float64
	}{
		{"codesign.BenchmarkSimEngine", 2507540, 32},
		{"codesign.BenchmarkHeadline", 1594057152, 1835753},
		{"codesign.BenchmarkDesignSpaceSweep/sim", 15800000, 51610},
		{"codesign/internal/sim.BenchmarkEventLoopSelf", 25961, 8},
	}
	if len(got) != len(cases) {
		t.Errorf("parsed %d benchmarks, want %d: %v", len(got), len(cases), got)
	}
	for _, c := range cases {
		e, ok := got[c.key]
		if !ok {
			t.Errorf("missing %s", c.key)
			continue
		}
		if e.NsOp != c.nsOp || e.AllocsOp != c.allocsOp {
			t.Errorf("%s = %+v, want ns_op %v allocs_op %v", c.key, e, c.nsOp, c.allocsOp)
		}
	}
}

// TestParseBenchProcsSuffix: a -N suffix is stripped only when every
// benchmark line carries the same one, as `go test` prints at one
// GOMAXPROCS above 1; at -cpu 1 there is no suffix, so names that end
// in -<digits> are kept whole.
func TestParseBenchProcsSuffix(t *testing.T) {
	names := []string{
		"BenchmarkRandomSparse/n=100000/d=1e-5",
		"BenchmarkRandomSparse/n=2048/d=0.01",
		"BenchmarkSweep/workers-2",
	}
	for _, suffix := range []string{"", "-8"} {
		var in strings.Builder
		in.WriteString("pkg: codesign/internal/matrix\n")
		for i, name := range names {
			fmt.Fprintf(&in, "%s%s   10   %d ns/op   6 allocs/op\n", name, suffix, 1000+i)
		}
		got, err := parseBench(strings.NewReader(in.String()))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(names) {
			t.Errorf("suffix %q: parsed %v, want %d entries", suffix, got, len(names))
		}
		for i, name := range names {
			key := "codesign/internal/matrix." + name
			if e, ok := got[key]; !ok || e.NsOp != float64(1000+i) {
				t.Errorf("suffix %q: %s = %+v, %v; want ns_op %d", suffix, key, e, ok, 1000+i)
			}
		}
	}
}

func TestParseBenchCustomMetricIgnored(t *testing.T) {
	got, err := parseBench(strings.NewReader(
		"BenchmarkX-16 100 50 ns/op 123 events/s 7 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	e := got["BenchmarkX"]
	if e.NsOp != 50 || e.AllocsOp != 7 {
		t.Errorf("got %+v, want ns_op 50 allocs_op 7", e)
	}
}

func TestCheck(t *testing.T) {
	base := Baseline{Benchmarks: map[string]Entry{
		"a.BenchmarkFast": {NsOp: 100, AllocsOp: 10},
		"a.BenchmarkGone": {NsOp: 100, AllocsOp: 10},
	}}

	// Within tolerance: 2.9x time (< 3x), 1.4x allocs (< 1.5x).
	got := map[string]Entry{
		"a.BenchmarkFast": {NsOp: 290, AllocsOp: 14},
		"a.BenchmarkGone": {NsOp: 100, AllocsOp: 10},
	}
	if fails := check(base, got, 3.0, 1.5); len(fails) != 0 {
		t.Errorf("unexpected failures: %v", fails)
	}

	// Time regression, alloc regression, and a missing benchmark.
	got = map[string]Entry{
		"a.BenchmarkFast": {NsOp: 301, AllocsOp: 16},
	}
	fails := check(base, got, 3.0, 1.5)
	if len(fails) != 3 {
		t.Fatalf("got %d failures, want 3: %v", len(fails), fails)
	}
	for i, want := range []string{"ns/op", "allocs/op", "missing"} {
		if !strings.Contains(fails[i], want) {
			t.Errorf("failure %d = %q, want it to mention %q", i, fails[i], want)
		}
	}
}

func TestCheckImprovementPasses(t *testing.T) {
	base := Baseline{Benchmarks: map[string]Entry{
		"a.BenchmarkX": {NsOp: 1000, AllocsOp: 100},
	}}
	got := map[string]Entry{"a.BenchmarkX": {NsOp: 10, AllocsOp: 0}}
	if fails := check(base, got, 3.0, 1.5); len(fails) != 0 {
		t.Errorf("improvement flagged as regression: %v", fails)
	}
}

func TestCheckZeroAllocBaseline(t *testing.T) {
	// A zero allocs/op baseline (the zero-allocation hot path) must gate
	// absolutely: the old ratio guard skipped it entirely, so any alloc
	// regression sailed through.
	base := Baseline{Benchmarks: map[string]Entry{
		"a.BenchmarkZeroAlloc": {NsOp: 1000, AllocsOp: 0},
	}}
	got := map[string]Entry{"a.BenchmarkZeroAlloc": {NsOp: 1000, AllocsOp: 3}}
	fails := check(base, got, 3.0, 1.5)
	if len(fails) != 1 || !strings.Contains(fails[0], "zero-alloc") {
		t.Fatalf("zero-alloc regression not caught: %v", fails)
	}
	// Staying at zero passes.
	got["a.BenchmarkZeroAlloc"] = Entry{NsOp: 1000, AllocsOp: 0}
	if fails := check(base, got, 3.0, 1.5); len(fails) != 0 {
		t.Errorf("clean zero-alloc run flagged: %v", fails)
	}
}

func TestCheckZeroTimeBaselineSkipped(t *testing.T) {
	// A zero ns/op baseline carries no information; it must neither
	// divide to +Inf nor fail every run.
	base := Baseline{Benchmarks: map[string]Entry{
		"a.BenchmarkOdd": {NsOp: 0, AllocsOp: 10},
	}}
	got := map[string]Entry{"a.BenchmarkOdd": {NsOp: 12345, AllocsOp: 10}}
	if fails := check(base, got, 3.0, 1.5); len(fails) != 0 {
		t.Errorf("zero time baseline produced failures: %v", fails)
	}
}

func TestParseBenchRejectsNonFiniteAndNegative(t *testing.T) {
	for _, bad := range []string{
		"BenchmarkX-8 10 NaN ns/op 3 allocs/op",
		"BenchmarkX-8 10 100 ns/op -5 allocs/op",
		"BenchmarkX-8 10 +Inf ns/op 3 allocs/op",
		"BenchmarkX-8 10 100 ns/op 3 allocs/op -Inf events/s",
	} {
		in := "pkg: a\nBenchmarkOK-8 10 100 ns/op 1 allocs/op\n" + bad + "\n"
		got, err := parseBench(strings.NewReader(in))
		if err == nil {
			t.Errorf("%q parsed to %v, want an error", bad, got)
			continue
		}
		if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), bad) {
			t.Errorf("%q: error %q does not name line 3 and its text", bad, err)
		}
	}
}

// TestRegenerateNoteCoversBaseline checks that the command -update
// writes into the baseline regenerates every entry the committed
// baseline gates: each entry's package is benchmarked by one of the
// note's `go test` commands whose -bench pattern matches the entry's
// top-level benchmark name.
func TestRegenerateNoteCoversBaseline(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_speed.json")
	if err != nil {
		t.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	type command struct {
		pkg   string
		bench *regexp.Regexp
	}
	var cmds []command
	for _, seg := range strings.Split(regenerateNote, "&&") {
		f := strings.Fields(seg)
		c := command{}
		for i, w := range f {
			switch {
			case w == "-bench" && i+1 < len(f):
				c.bench = regexp.MustCompile(strings.Trim(f[i+1], "'"))
			case w == "." || strings.HasPrefix(w, "./internal/"):
				c.pkg = strings.TrimSuffix(path.Join("codesign", w), "/")
			}
		}
		if c.bench != nil {
			cmds = append(cmds, c)
		}
	}
	if len(cmds) == 0 {
		t.Fatal("note holds no go test -bench command")
	}
	for key := range base.Benchmarks {
		i := strings.LastIndex(key, ".Benchmark")
		if i < 0 {
			t.Errorf("%s: baseline key names no package", key)
			continue
		}
		pkg := key[:i]
		family, _, _ := strings.Cut(key[i+1:], "/")
		covered := false
		for _, c := range cmds {
			covered = covered || (c.pkg == pkg && c.bench.MatchString(family))
		}
		if !covered {
			t.Errorf("%s: no command in the -update note benchmarks %s in %s", key, family, pkg)
		}
	}
}

// formatBench renders parsed entries back into `go test -bench` output.
func formatBench(entries map[string]Entry) string {
	var b strings.Builder
	for key, e := range entries {
		pkg, name := "", key
		if i := strings.LastIndex(key, ".Benchmark"); i >= 0 {
			pkg, name = key[:i], key[i+1:]
		}
		fmt.Fprintf(&b, "pkg: %s\n%s-8 1 %s ns/op %s allocs/op\n", pkg, name,
			strconv.FormatFloat(e.NsOp, 'g', -1, 64), strconv.FormatFloat(e.AllocsOp, 'g', -1, 64))
	}
	return b.String()
}

// FuzzParseBench: parseBench never panics, either rejects its input or
// returns only finite non-negative measurements, and what it returns
// re-formats to output it parses back to the same entries.
func FuzzParseBench(f *testing.F) {
	f.Add(sampleOutput)
	f.Add("BenchmarkX-16 100 50 ns/op 123 events/s 7 allocs/op\n")
	f.Add("BenchmarkX-8 10 NaN ns/op -5 allocs/op\n")
	f.Add("pkg: a.b\nBenchmarkY/sub-2-4 1 1e300 ns/op 0 allocs/op\npkg:\nBenchmarkZ 3 4 ns/op\n")
	f.Fuzz(func(t *testing.T, in string) {
		got, err := parseBench(strings.NewReader(in))
		if err != nil {
			return
		}
		for k, e := range got {
			for _, v := range []float64{e.NsOp, e.AllocsOp} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("%s: accepted measurement %v", k, v)
				}
			}
		}
		text := formatBench(got)
		again, err := parseBench(strings.NewReader(text))
		if err != nil {
			t.Fatalf("re-formatted output rejected: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("parse → format → parse unstable:\n%v\n%v\n%s", got, again, text)
		}
	})
}
