package cache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLRUEvictionBoundAndOrder(t *testing.T) {
	c := NewLRU[int, string](3)
	for i := 1; i <= 3; i++ {
		c.Put(i, fmt.Sprint(i))
	}
	// Touch 1 so 2 becomes the LRU victim.
	if v, ok := c.Get(1); !ok || v != "1" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	c.Put(4, "4")
	if c.Len() != 3 {
		t.Fatalf("Len = %d after eviction, want 3", c.Len())
	}
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted (least recently used)")
	}
	for _, k := range []int{1, 3, 4} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("key %d missing after eviction of 2", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", s.Evictions)
	}
}

func TestLRUBoundNeverExceeded(t *testing.T) {
	const bound = 8
	c := NewLRU[int, int](bound)
	for i := 0; i < 1000; i++ {
		c.Put(i, i)
		if c.Len() > bound {
			t.Fatalf("Len = %d exceeds bound %d", c.Len(), bound)
		}
	}
	if c.Len() != bound {
		t.Fatalf("Len = %d, want %d", c.Len(), bound)
	}
	s := c.Stats()
	if s.Evictions != 1000-bound {
		t.Fatalf("Evictions = %d, want %d", s.Evictions, 1000-bound)
	}
}

func TestLRUUnbounded(t *testing.T) {
	c := NewLRU[int, int](0)
	for i := 0; i < 10000; i++ {
		c.Put(i, i)
	}
	if c.Len() != 10000 {
		t.Fatalf("Len = %d, want 10000 (unbounded)", c.Len())
	}
	if s := c.Stats(); s.Evictions != 0 {
		t.Fatalf("Evictions = %d on unbounded cache", s.Evictions)
	}
}

func TestLRUPutReplaces(t *testing.T) {
	c := NewLRU[string, int](2)
	c.Put("a", 1)
	c.Put("a", 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d after replacing put, want 1", c.Len())
	}
	if v, _ := c.Get("a"); v != 2 {
		t.Fatalf("Get(a) = %d, want 2", v)
	}
}

// weighByLen weighs a string by its length, standing in for a byte
// size.
func weighByLen(s string) int { return len(s) }

// dumpWeight sums the weighByLen weights of c's entries.
func dumpWeight[K comparable](c *LRU[K, string]) int {
	sum := 0
	for _, e := range c.Dump() {
		sum += weighByLen(e.Val)
	}
	return sum
}

func TestWeightedLRUEvictsLeastRecentlyUsedByWeight(t *testing.T) {
	c := NewWeightedLRU[string, string](10, weighByLen)
	c.Put("a", "aaaa") // 4
	c.Put("b", "bbb")  // 7
	c.Put("c", "cc")   // 9
	c.Get("a")         // recency a, c, b
	// 9 + 3 = 12 > 10: b, the least recently used, goes, and the
	// total fits again without touching a or c.
	c.Put("d", "ddd")
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (least recently used)")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s missing after evicting b", k)
		}
	}
	if w := dumpWeight(c); w != 9 {
		t.Fatalf("weight = %d, want 9", w)
	}
	// One heavy entry evicts as many light ones as it needs: recency
	// is now d, c, a, so a (4) and c (2) go to fit 9.
	c.Get("c")
	c.Get("d")
	c.Put("e", "eeeeee")
	if got, want := c.Len(), 2; got != want {
		t.Fatalf("Len = %d, want %d (d and e)", got, want)
	}
	for _, k := range []string{"d", "e"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s missing", k)
		}
	}
	if s := c.Stats(); s.Evictions != 3 {
		t.Fatalf("Evictions = %d, want 3", s.Evictions)
	}
}

func TestWeightedLRUBoundNeverExceeded(t *testing.T) {
	const bound = 64
	c := NewWeightedLRU[int, string](bound, weighByLen)
	for i := 0; i < 2000; i++ {
		c.Put(i%97, strings.Repeat("x", (i*37)%41+1))
		if w := dumpWeight(c); w > bound {
			t.Fatalf("after put %d: weight = %d exceeds bound %d", i, w, bound)
		}
	}
}

func TestWeightedLRUOversizedEntryNeverCached(t *testing.T) {
	c := NewWeightedLRU[string, string](5, weighByLen)
	c.Put("a", "aa")
	c.Put("b", "bb")
	c.Put("big", "bigger")
	if c.Len() != 0 {
		t.Fatalf("Len = %d after an oversized put, want 0", c.Len())
	}
	if _, ok := c.Get("big"); ok {
		t.Fatal("an entry heavier than the bound was cached")
	}
}

func TestWeightedLRUReplaceReweighs(t *testing.T) {
	c := NewWeightedLRU[string, string](6, weighByLen)
	c.Put("a", "aa")
	c.Put("b", "bb")
	c.Put("a", "aaaa") // 4 + 2 = 6: fits, a now most recent
	if w := dumpWeight(c); w != 6 {
		t.Fatalf("weight = %d after growing a, want 6", w)
	}
	c.Put("b", "bbb") // 4 + 3 = 7: a is now the LRU victim
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted when b grew")
	}
	if w := dumpWeight(c); w != 3 {
		t.Fatalf("weight = %d, want 3", w)
	}
}

func TestLRUClear(t *testing.T) {
	c := NewWeightedLRU[string, string](0, weighByLen)
	c.Put("a", "aaa")
	c.Put("b", "b")
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Clear", c.Len())
	}
	if s := c.Stats(); s.Evictions != 0 {
		t.Fatalf("Clear counted %d evictions", s.Evictions)
	}
	c.Put("c", "cc")
	if d := c.Dump(); len(d) != 1 || d[0].Key != "c" {
		t.Fatalf("Dump after Clear and Put = %v", d)
	}
}

// TestGetOrComputeExactlyOnce hammers one cache from many goroutines
// and asserts each distinct key's loader ran exactly once — the
// memoizer contract the sweep relies on. Run with -race.
func TestGetOrComputeExactlyOnce(t *testing.T) {
	const keys, workers, rounds = 17, 8, 200
	c := NewLRU[int, int](0)
	var loads [keys]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (i + w) % keys
				v, _ := c.GetOrCompute(k, func() int {
					loads[k].Add(1)
					return k * 10
				})
				if v != k*10 {
					t.Errorf("GetOrCompute(%d) = %d", k, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for k := range loads {
		if n := loads[k].Load(); n != 1 {
			t.Errorf("key %d loaded %d times, want exactly 1", k, n)
		}
	}
	s := c.Stats()
	if s.Misses != keys || s.Lookups != workers*rounds {
		t.Errorf("stats = %+v, want %d misses over %d lookups", s, keys, workers*rounds)
	}
	if got := s.HitRate(); got <= 0.9 {
		t.Errorf("HitRate = %.3f, want > 0.9 on a duplicate-heavy load", got)
	}
}

func TestFlightCoalescesConcurrentLoads(t *testing.T) {
	f := NewFlight[string, int]()
	release := make(chan struct{})
	var loads atomic.Int64

	const followers = 15
	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	results := make([]int, followers+1)
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := f.Do(context.Background(), "k", func() (int, error) {
				loads.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if shared {
				sharedCount.Add(1)
			}
			results[i] = v
		}(i)
	}
	// Let everyone pile onto the call, then release the leader.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := loads.Load(); n != 1 {
		t.Fatalf("load ran %d times, want 1", n)
	}
	if n := sharedCount.Load(); n != followers {
		t.Fatalf("%d callers shared, want %d", n, followers)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("caller %d got %d", i, v)
		}
	}
}

func TestFlightFollowerHonorsContext(t *testing.T) {
	f := NewFlight[string, int]()
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)

	go f.Do(context.Background(), "k", func() (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, shared, err := f.Do(ctx, "k", func() (int, error) { return 2, nil })
	if !shared {
		t.Fatal("follower should report shared")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// TestFlightPanicReleasesKey checks that a load that panics does not
// leave its key in flight: the panic reaches the leader, and the next
// Do for the key runs a fresh load instead of waiting forever.
func TestFlightPanicReleasesKey(t *testing.T) {
	f := NewFlight[string, int]()
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the load's panic", r)
			}
		}()
		f.Do(context.Background(), "k", func() (int, error) { panic("boom") })
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, shared, err := f.Do(context.Background(), "k", func() (int, error) { return 7, nil })
		if v != 7 || shared || err != nil {
			t.Errorf("Do after a panicked load = %d, %v, %v, want 7, false, nil", v, shared, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Do blocked on the key of a load that panicked")
	}
}

// TestFlightFollowerGetsLeaderPanic checks that a caller coalesced onto
// a load that panics gets an error naming the panic, not a zero value.
func TestFlightFollowerGetsLeaderPanic(t *testing.T) {
	f := NewFlight[string, int]()
	// The follower must join while the leader is inside its load; a
	// follower that arrives late leads its own load, and the attempt
	// is repeated.
	for attempt := 0; attempt < 20; attempt++ {
		started, release := make(chan struct{}), make(chan struct{})
		leaderDone := make(chan struct{})
		go func() {
			defer close(leaderDone)
			defer func() { recover() }()
			f.Do(context.Background(), "k", func() (int, error) {
				close(started)
				<-release
				panic("boom")
			})
		}()
		<-started
		type outcome struct {
			shared bool
			err    error
		}
		got := make(chan outcome, 1)
		go func() {
			_, shared, err := f.Do(context.Background(), "k", func() (int, error) { return 0, nil })
			got <- outcome{shared, err}
		}()
		time.Sleep(5 * time.Millisecond)
		close(release)
		<-leaderDone
		var o outcome
		select {
		case o = <-got:
		case <-time.After(10 * time.Second):
			t.Fatal("follower blocked on a load that panicked")
		}
		if !o.shared {
			continue
		}
		if o.err == nil || !strings.Contains(o.err.Error(), "panicked: boom") {
			t.Fatalf("follower err = %v, want the leader's panic", o.err)
		}
		return
	}
	t.Fatal("no follower joined the panicking load in 20 attempts")
}

func TestWeightedLoadingKeepsOnlyWhatFits(t *testing.T) {
	l := NewWeightedLoading[string, string](5, weighByLen)
	load := func(v string) func() (string, error) { return func() (string, error) { return v, nil } }
	l.Do(context.Background(), "a", load("aa"))
	l.Do(context.Background(), "b", load("bb"))
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	v, src, err := l.Do(context.Background(), "big", load("bigger"))
	if v != "bigger" || src != SourceComputed || err != nil {
		t.Fatalf("oversized Do = %q, %v, %v", v, src, err)
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d after an oversized load, want 0 (it evicts all and is not kept)", l.Len())
	}
	l.Do(context.Background(), "a", load("aa"))
	l.Clear()
	if l.Len() != 0 {
		t.Fatalf("Len = %d after Clear", l.Len())
	}
	if _, src, _ := l.Do(context.Background(), "a", load("aa")); src != SourceComputed {
		t.Fatalf("Do after Clear came from %v, want a fresh load", src)
	}
}

func TestLoadingSources(t *testing.T) {
	l := NewLoading[string, int](4)
	var loads atomic.Int64
	load := func() (int, error) { loads.Add(1); return 7, nil }

	v, src, err := l.Do(context.Background(), "k", load)
	if v != 7 || src != SourceComputed || err != nil {
		t.Fatalf("first Do = %d, %v, %v; want 7, computed, nil", v, src, err)
	}
	v, src, err = l.Do(context.Background(), "k", load)
	if v != 7 || src != SourceHit || err != nil {
		t.Fatalf("second Do = %d, %v, %v; want 7, cache, nil", v, src, err)
	}
	if loads.Load() != 1 {
		t.Fatalf("load ran %d times, want 1", loads.Load())
	}
	if got := src.String(); got != "cache" {
		t.Fatalf("SourceHit.String() = %q", got)
	}
}

func TestLoadingDoesNotCacheErrors(t *testing.T) {
	l := NewLoading[string, int](4)
	boom := errors.New("boom")
	calls := 0
	_, _, err := l.Do(context.Background(), "k", func() (int, error) { calls++; return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, src, err := l.Do(context.Background(), "k", func() (int, error) { calls++; return 9, nil })
	if v != 9 || src != SourceComputed || err != nil {
		t.Fatalf("retry = %d, %v, %v; want fresh compute", v, src, err)
	}
	if calls != 2 {
		t.Fatalf("load ran %d times, want 2 (errors not cached)", calls)
	}
}

// TestLoadingCoalescedHammer checks that under heavy duplicate load
// the number of loads stays bounded by the number of distinct keys
// (not callers), with every caller seeing the right value. Run with
// -race.
func TestLoadingCoalescedHammer(t *testing.T) {
	l := NewLoading[int, int](64)
	var loads atomic.Int64
	const workers, rounds, keys = 16, 100, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (w + i) % keys
				v, _, err := l.Do(context.Background(), k, func() (int, error) {
					loads.Add(1)
					time.Sleep(time.Millisecond) // widen the coalescing window
					return k + 100, nil
				})
				if err != nil || v != k+100 {
					t.Errorf("Do(%d) = %d, %v", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := loads.Load(); n != keys {
		t.Fatalf("loads = %d, want exactly %d (one per key: cache + coalescing)", n, keys)
	}
}

func TestStatsHitRateZeroSafe(t *testing.T) {
	if r := (Stats{}).HitRate(); r != 0 {
		t.Fatalf("zero Stats HitRate = %v", r)
	}
	s := Stats{Lookups: 4, Hits: 3, Misses: 1}
	if r := s.HitRate(); r != 0.75 {
		t.Fatalf("HitRate = %v, want 0.75", r)
	}
}

func TestDumpSeedRoundtrip(t *testing.T) {
	c := NewLRU[string, int](0)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	c.Get("a") // recency now a, c, b

	dump := c.Dump()
	want := []Entry[string, int]{{"a", 1}, {"c", 3}, {"b", 2}}
	if len(dump) != len(want) {
		t.Fatalf("Dump = %v, want %v", dump, want)
	}
	for i := range want {
		if dump[i] != want[i] {
			t.Fatalf("Dump = %v, want %v (MRU first)", dump, want)
		}
	}

	// Restoring into a fresh cache reproduces contents and recency.
	restored := NewLRU[string, int](0)
	restored.Seed(dump)
	redump := restored.Dump()
	for i := range want {
		if redump[i] != want[i] {
			t.Fatalf("re-Dump = %v, want %v", redump, want)
		}
	}
	// Dump/Seed must not perturb lookup stats.
	if st := restored.Stats(); st.Lookups != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Seed touched lookup stats: %+v", st)
	}

	// A snapshot larger than the bound keeps the most recently used
	// entries.
	small := NewLRU[string, int](2)
	small.Seed(dump)
	if small.Len() != 2 {
		t.Fatalf("Len = %d, want 2", small.Len())
	}
	if _, ok := small.Get("a"); !ok {
		t.Error("MRU entry a evicted by bounded seed")
	}
	if _, ok := small.Get("c"); !ok {
		t.Error("entry c evicted by bounded seed")
	}
	if _, ok := small.Get("b"); ok {
		t.Error("LRU entry b survived bounded seed")
	}
}

func TestSeedOverwritesExisting(t *testing.T) {
	c := NewLRU[string, int](0)
	c.Put("a", 1)
	c.Seed([]Entry[string, int]{{"a", 42}, {"b", 2}})
	if v, _ := c.Get("a"); v != 42 {
		t.Fatalf("a = %d after seed, want 42", v)
	}
	// Seeded recency: a (first in snapshot) is most recent.
	if d := c.Dump(); d[0].Key != "a" {
		t.Fatalf("Dump head = %q, want a", d[0].Key)
	}
}

func TestLoadingDumpSeed(t *testing.T) {
	l := NewLoading[string, int](0)
	ctx := context.Background()
	l.Do(ctx, "x", func() (int, error) { return 7, nil })

	l2 := NewLoading[string, int](0)
	l2.Seed(l.Dump())
	calls := 0
	v, src, err := l2.Do(ctx, "x", func() (int, error) { calls++; return 0, nil })
	if err != nil || v != 7 || src != SourceHit || calls != 0 {
		t.Fatalf("seeded lookup: v=%d src=%v calls=%d err=%v, want 7/hit/0/nil", v, src, calls, err)
	}
}
