package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"codesign/internal/matrix"
	"codesign/internal/sim"
)

// runMVDigested runs cfg with telemetry and a digest observer and
// returns the result with the digest of its event and span streams and
// engine counters.
func runMVDigested(t *testing.T, run func(SpMVConfig) (*SpMVResult, error), cfg SpMVConfig) (*SpMVResult, string) {
	t.Helper()
	obs := newDigestObserver()
	cfg.Observer = obs
	cfg.Telemetry = true
	var ctr sim.Counters
	sim.InstallCounters(&ctr)
	r, err := run(cfg)
	sim.InstallCounters(nil)
	if err != nil {
		t.Fatal(err)
	}
	return r, obs.digest(fmt.Sprintf("%+v", ctr.Snapshot()))
}

// memoKeys lists the memoized input keys, most recently used first,
// without touching their recency.
func memoKeys() []mvKey {
	var keys []mvKey
	for _, e := range mvInputs.Dump() {
		keys = append(keys, e.Key)
	}
	return keys
}

// memoized returns the memoized input for k, without touching its
// recency or the memo's stats.
func memoized(k mvKey) (*mvInput, bool) {
	for _, e := range mvInputs.Dump() {
		if e.Key == k {
			return e.Val, true
		}
	}
	return nil, false
}

// memoBytes sums the bytes of the memoized inputs.
func memoBytes() int {
	total := 0
	for _, e := range mvInputs.Dump() {
		total += e.Val.bytes
	}
	return total
}

// mustLoadMVInput is loadMVInput for inputs whose generation cannot
// fail.
func mustLoadMVInput(t *testing.T, k mvKey) *mvInput {
	t.Helper()
	in, err := loadMVInput(k.n, k.density, k.seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// requireFreshInput fails unless the memoized input for k equals a
// fresh generation of it: no run may write to the shared operator or
// start vector.
func requireFreshInput(t *testing.T, k mvKey) {
	t.Helper()
	in, ok := memoized(k)
	if !ok {
		t.Fatalf("%+v not memoized", k)
	}
	if fresh := buildMVInput(k, mvInputBytes(k.n, k.density)); !reflect.DeepEqual(in, fresh) {
		t.Fatalf("memoized input %+v differs from a fresh generation: a run wrote to it", k)
	}
}

var mvMemoCases = []struct {
	name string
	run  func(SpMVConfig) (*SpMVResult, error)
	cfg  SpMVConfig
}{
	{"spmv", RunSpMV, SpMVConfig{N: 512, Density: 0.05, RowsFPGA: -1, Seed: 11}},
	{"spmv-dense", RunSpMV, SpMVConfig{N: 256, Density: 0, RowsFPGA: -1, Seed: 11}},
	{"spmm-resident", RunSpMM, SpMVConfig{N: 1024, Density: 0.02, RHS: 32, RowsFPGA: -1, Seed: 11}},
}

// TestMVInputMemoTransparent checks that a run on a warm memo is the
// run on a cold one: the same result, field for field, and the same
// event and span streams, in every mode.
func TestMVInputMemoTransparent(t *testing.T) {
	for _, c := range mvMemoCases {
		for _, mode := range []Mode{Hybrid, ProcessorOnly, FPGAOnly} {
			t.Run(fmt.Sprintf("%s/%v", c.name, mode), func(t *testing.T) {
				cfg := c.cfg
				cfg.Mode = mode
				k := mvKey{cfg.N, cfg.Density, cfg.Seed}
				mvInputs.Clear()
				cold, coldDigest := runMVDigested(t, c.run, cfg)
				in, ok := memoized(k)
				if !ok {
					t.Fatal("cold run left its input uncached")
				}
				warm, warmDigest := runMVDigested(t, c.run, cfg)
				if again, _ := memoized(k); again != in {
					t.Fatal("warm run generated its input again")
				}
				if !reflect.DeepEqual(cold, warm) {
					t.Fatalf("warm result differs from cold:\ncold %+v\nwarm %+v", cold, warm)
				}
				if coldDigest != warmDigest {
					t.Fatalf("warm digest %s, cold %s", warmDigest, coldDigest)
				}
				if c.cfg.RHS > 0 && !warm.Resident {
					t.Fatal("spmm case must exercise the resident arrangement")
				}
				requireFreshInput(t, k)
			})
		}
	}
}

// TestMVInputMemoSpMMLeavesStartVector runs SpMV, then SpMM on the
// same input (whose power chain rewrites its x on every apply), then
// SpMV again: the last run must match the first, and the memoized
// start vector must still be the generated one.
func TestMVInputMemoSpMMLeavesStartVector(t *testing.T) {
	cfg := SpMVConfig{N: 512, Density: 0.05, RowsFPGA: -1, Mode: Hybrid, Seed: 12, RHS: 8}
	mvInputs.Clear()
	first, firstDigest := runMVDigested(t, RunSpMV, cfg)
	runMVDigested(t, RunSpMM, cfg)
	requireFreshInput(t, mvKey{cfg.N, cfg.Density, cfg.Seed})
	again, againDigest := runMVDigested(t, RunSpMV, cfg)
	if !reflect.DeepEqual(first, again) || firstDigest != againDigest {
		t.Fatalf("SpMV after SpMM differs from SpMV on a cold memo:\nfirst %+v\nagain %+v", first, again)
	}
}

// TestMVInputMemoCoalescesConcurrentMisses has many goroutines ask for
// one uncached input at once: exactly one generates it and all share
// it (a second generation would hand its own caller a second input).
// Run with -race, it also checks that concurrent runs on one shared
// input only read it.
func TestMVInputMemoCoalescesConcurrentMisses(t *testing.T) {
	const workers = 8
	k := mvKey{n: 2048, density: 0.05, seed: 13}
	mvInputs.Clear()
	start := make(chan struct{})
	got := make([]*mvInput, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[w], _ = loadMVInput(k.n, k.density, k.seed)
		}()
	}
	close(start)
	wg.Wait()
	for w, in := range got {
		if in != got[0] {
			t.Fatalf("worker %d got a second generation of the input", w)
		}
	}

	cfg := SpMVConfig{N: k.n, Density: k.density, Seed: k.seed, RowsFPGA: -1, Mode: Hybrid, RHS: 4}
	want, err := RunSpMM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*SpMVResult, 4)
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], _ = RunSpMM(cfg)
		}()
	}
	wg.Wait()
	for i, r := range results {
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("concurrent run %d differs from a sequential one", i)
		}
	}
	requireFreshInput(t, k)
}

// TestMVInputBytes pins the memo's byte sizing to the arrays a
// generation actually allocates.
func TestMVInputBytes(t *testing.T) {
	for _, k := range []mvKey{{1, 0, 1}, {1, 1, 1}, {64, 1, 1}, {300, 0.03, 2}, {512, 0, 3}, {2048, 0.1, 4}} {
		in := buildMVInput(k, mvInputBytes(k.n, k.density))
		want := 8 * len(in.x0)
		if sp, ok := in.op.(*matrix.CSR); ok {
			want += 8*(k.n+1) + 16*sp.NNZ()
		} else {
			want += 8 * k.n * k.n
		}
		if in.bytes != want {
			t.Errorf("%+v: mvInputBytes = %d, allocated %d", k, in.bytes, want)
		}
	}
}

// TestMVInputMemoBudget checks the byte budget: cached bytes never
// exceed it, eviction drops the least recently used input, and an
// input larger than the budget (the sweep's dense n=2048 operator)
// empties the memo and is not cached.
func TestMVInputMemoBudget(t *testing.T) {
	mvInputs.Clear()
	keys := []mvKey{
		{512, 0.01, 1}, {512, 0.1, 1}, {2048, 0.01, 1}, {2048, 0.05, 1}, {2048, 0.1, 1},
		{512, 0, 1}, {1024, 0, 1}, {2048, 0.1, 2}, {2048, 0.1, 3}, {512, 0.01, 1},
	}
	for _, k := range keys {
		mustLoadMVInput(t, k)
		if b := memoBytes(); b > mvInputBudget {
			t.Fatalf("after %+v: memo holds %d bytes, budget %d", k, b, mvInputBudget)
		}
	}

	// Two 6.8 MiB inputs fit; touching the first makes the second the
	// least recently used, so a third evicts it.
	mvInputs.Clear()
	a, b, c := mvKey{2048, 0.1, 1}, mvKey{2048, 0.1, 2}, mvKey{2048, 0.1, 3}
	if bytes := mvInputBytes(a.n, a.density); 2*bytes > mvInputBudget || 3*bytes <= mvInputBudget {
		t.Fatalf("test inputs of %d bytes do not straddle the %d-byte budget", bytes, mvInputBudget)
	}
	for _, k := range []mvKey{a, b, a, c} {
		mustLoadMVInput(t, k)
	}
	if got, want := memoKeys(), []mvKey{c, a}; !reflect.DeepEqual(got, want) {
		t.Fatalf("memo holds %v, want %v (b evicted as least recently used)", got, want)
	}

	// The dense n=2048 operator (32 MiB) is over budget.
	dense := mvKey{2048, 0, 1}
	var built []*mvInput
	for i := 0; i < 2; i++ {
		in := mustLoadMVInput(t, dense)
		built = append(built, in)
		if in.bytes <= mvInputBudget {
			t.Fatalf("dense n=2048 input is %d bytes, within the %d-byte budget", in.bytes, mvInputBudget)
		}
		if mvInputs.Len() != 0 {
			t.Fatalf("memo holds %v after the over-budget input, want empty", memoKeys())
		}
	}
	if built[0] == built[1] {
		t.Fatal("the over-budget input was served from the memo")
	}
}

// TestMVInputMemoSurvivesPanickedGeneration has a generation panic (a
// density RandomSparse rejects stands in for an operator too large to
// allocate) and then asks for the same key again: the second request
// must generate afresh and panic the same way, not wait forever on the
// first one.
func TestMVInputMemoSurvivesPanickedGeneration(t *testing.T) {
	k := mvKey{n: 64, density: 2, seed: 14}
	load := func() (r any) {
		defer func() { r = recover() }()
		loadMVInput(k.n, k.density, k.seed)
		return nil
	}
	if r := load(); r == nil {
		t.Fatal("generation did not panic")
	}
	second := make(chan any, 1)
	go func() { second <- load() }()
	select {
	case r := <-second:
		if r == nil {
			t.Fatal("second generation did not panic")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second request blocked on the panicked generation")
	}
	if _, ok := memoized(k); ok {
		t.Fatal("a panicked generation was memoized")
	}
}

// TestSpMVInputCap checks that an input over mvInputCap fails before
// anything is built: a dense n=65536 operator (32 GiB) returns the cap
// error with under 1 MiB allocated, n=1<<40 is rejected at every
// density (at 1e-3 its size wraps negative in int arithmetic), and the
// largest dense n under the cap still sizes within it.
func TestSpMVInputCap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := RunSpMV(SpMVConfig{N: 65536})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errMVInputTooLarge) {
		t.Fatalf("dense n=65536: err %v, want the input cap error", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("rejecting n=65536 allocated %d bytes", alloc)
	}
	for _, density := range []float64{0, 1e-3, 1} {
		if _, err := RunSpMV(SpMVConfig{N: 1 << 40, Density: density}); !errors.Is(err, errMVInputTooLarge) {
			t.Errorf("n=1<<40 density %g: err %v, want the input cap error", density, err)
		}
	}
	if b := mvInputBytes(11584, 0); b > mvInputCap {
		t.Errorf("dense n=11584 sizes at %d bytes, over the %d-byte cap", b, mvInputCap)
	}
	if b := mvInputBytes(11585, 0); b <= mvInputCap {
		t.Errorf("dense n=11585 sizes at %d bytes, within the %d-byte cap", b, mvInputCap)
	}
}
