// Package cache is the shared memoization substrate for expensive,
// deterministic solves and inputs: the pseudo place-and-route and
// Eq. 1/4/5/6 partition solutions that internal/sweep reuses across
// grid points, the full query-level solve cache behind the codesignd
// service (internal/serve), and the byte-bounded SpMV input memo of
// internal/core.
//
// It offers three layers, each building on the previous:
//
//   - LRU: a bounded, hit/miss/eviction-instrumented
//     least-recently-used map. The bound counts entries, or, built
//     with NewWeightedLRU, any per-entry weight such as bytes.
//     GetOrCompute runs the loader under the cache lock, so a distinct
//     key is computed exactly once no matter how many goroutines race
//     for it — the discipline the sweep memoizer has always promised.
//   - Flight: single-flight request coalescing. Concurrent calls for
//     one key share a single loader execution; followers wait with
//     their own context, so a caller's deadline bounds its wait even
//     while the leader keeps computing.
//   - Loading: LRU + Flight composed into a read-through cache (the
//     serve layer's solve cache, the SpMV input memo) — a lookup that
//     reports whether the value came from cache, from a coalesced
//     in-flight computation, or from a fresh solve.
//
// Everything here is value-deterministic: for the solvers this caches,
// the same key always computes the same value, so caching (and
// eviction followed by recomputation) never changes results — only
// latency. Failed loads are never cached.
package cache
