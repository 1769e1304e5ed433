package cache

import (
	"context"
	"fmt"
	"sync"
)

// call is one in-flight load shared by a leader and any followers.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Flight deduplicates concurrent loads: while one goroutine (the
// leader) computes the value for a key, other goroutines asking for
// the same key (followers) wait for the leader's result instead of
// computing their own. The zero value is not usable; construct with
// NewFlight. Unlike golang.org/x/sync/singleflight, waiting is
// context-aware: a follower whose context expires stops waiting and
// returns the context error while the leader's compute continues for
// any remaining waiters.
type Flight[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

// NewFlight returns an empty single-flight group.
func NewFlight[K comparable, V any]() *Flight[K, V] {
	return &Flight[K, V]{calls: make(map[K]*call[V])}
}

// Do returns the result of load for k, coalescing concurrent calls:
// exactly one load runs per key at a time, and every caller that
// stayed until it finished gets its result. The second result reports
// whether this caller was a follower (shared someone else's load).
// The leader always runs load to completion regardless of ctx — the
// loads cached here are not cancellable mid-solve — but followers
// honor ctx while waiting. If load panics, the panic continues in the
// leader and its followers get an error naming the panic value; either
// way the key is released, so the next Do for it runs a fresh load.
func (f *Flight[K, V]) Do(ctx context.Context, k K, load func() (V, error)) (V, bool, error) {
	f.mu.Lock()
	if c, ok := f.calls[k]; ok {
		f.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			var zero V
			return zero, true, ctx.Err()
		}
	}
	c := &call[V]{done: make(chan struct{})}
	f.calls[k] = c
	f.mu.Unlock()

	defer func() {
		r := recover()
		if r != nil {
			c.err = fmt.Errorf("cache: coalesced load panicked: %v", r)
		}
		f.mu.Lock()
		delete(f.calls, k)
		f.mu.Unlock()
		close(c.done)
		if r != nil {
			panic(r)
		}
	}()
	c.val, c.err = load()
	return c.val, false, c.err
}

// Source says how a Loading lookup was satisfied.
type Source int

// The lookup sources, ordered from cheapest to most expensive.
const (
	// SourceHit means the value was already cached.
	SourceHit Source = iota
	// SourceShared means the caller coalesced onto another caller's
	// in-flight load.
	SourceShared
	// SourceComputed means this caller ran the load itself.
	SourceComputed
)

// String names the source ("cache", "coalesced", "computed").
func (s Source) String() string {
	switch s {
	case SourceHit:
		return "cache"
	case SourceShared:
		return "coalesced"
	default:
		return "computed"
	}
}

// Loading composes an LRU with a Flight: the read-through solve cache
// of the serve layer and the SpMV input memo of internal/core. Lookups
// hit the LRU first; misses coalesce onto a single load per key, and
// successful loads populate the cache. Distinct keys load in parallel
// (the LRU lock is never held during a load). Failed loads are not
// cached.
type Loading[K comparable, V any] struct {
	lru    *LRU[K, V]
	flight *Flight[K, V]
}

// NewLoading returns a read-through cache bounded to bound entries
// (bound <= 0 = unbounded).
func NewLoading[K comparable, V any](bound int) *Loading[K, V] {
	return &Loading[K, V]{lru: NewLRU[K, V](bound), flight: NewFlight[K, V]()}
}

// NewWeightedLoading returns a read-through cache over
// NewWeightedLRU(bound, weigh): a loaded value heavier than the whole
// bound is returned but not kept.
func NewWeightedLoading[K comparable, V any](bound int, weigh func(V) int) *Loading[K, V] {
	return &Loading[K, V]{lru: NewWeightedLRU[K, V](bound, weigh), flight: NewFlight[K, V]()}
}

// Do returns the value for k, loading it at most once across
// concurrent callers. The Source reports whether the value came from
// the cache, from a coalesced in-flight load, or from a load this
// caller ran. ctx bounds a follower's wait (the leader's load itself
// is not cancellable). A load that panics is not cached; the panic
// reaches the caller that ran it, and the callers coalesced onto it
// get an error.
func (l *Loading[K, V]) Do(ctx context.Context, k K, load func() (V, error)) (V, Source, error) {
	if v, ok := l.lru.Get(k); ok {
		return v, SourceHit, nil
	}
	stored := false
	v, shared, err := l.flight.Do(ctx, k, func() (V, error) {
		// Another caller's load of k may have finished between the
		// Get above and this flight.
		if v, ok := l.lru.peek(k); ok {
			stored = true
			return v, nil
		}
		v, err := load()
		if err == nil {
			l.lru.Put(k, v)
		}
		return v, err
	})
	if shared || stored {
		return v, SourceShared, err
	}
	return v, SourceComputed, err
}

// Clear drops every cached entry; in-flight loads are unaffected. See
// LRU.Clear.
func (l *Loading[K, V]) Clear() { l.lru.Clear() }

// Len returns the number of cached entries.
func (l *Loading[K, V]) Len() int { return l.lru.Len() }

// Dump snapshots the underlying LRU (most recently used first); see
// LRU.Dump.
func (l *Loading[K, V]) Dump() []Entry[K, V] { return l.lru.Dump() }

// Seed restores a Dump-format snapshot into the underlying LRU; see
// LRU.Seed. In-flight loads are unaffected.
func (l *Loading[K, V]) Seed(entries []Entry[K, V]) { l.lru.Seed(entries) }

// Stats returns the underlying LRU's counters. A SourceShared lookup
// counts as one miss (the initial Get) — the coalesced load is the
// flight's business, not the cache's.
func (l *Loading[K, V]) Stats() Stats { return l.lru.Stats() }
