// Package sim is a deterministic process-based discrete-event simulation
// engine. Simulated entities (a node's processor, its FPGA, a DMA
// engine, a network link) are processes — coroutines that run one at a
// time under a scheduler and advance a shared virtual clock by waiting.
// A process whose whole body is a fixed list of charges followed by a
// non-blocking completion hook (an FPGA job's operand fill and array
// compute, say) is better spawned as a task (Engine.Task): the engine
// runs it from its first event to its last without a coroutine, with
// the same events and spans the coroutine body would produce.
//
// The engine is the substrate on which the reconfigurable computing
// system is modeled: it charges virtual time for computation, DRAM
// transfers and network messages, and serializes contention on shared
// resources exactly as the co-design model of the paper requires (e.g.
// a processor that is communicating cannot compute, per Section 4.3,
// while an FPGA streaming from DRAM can — the overlap assumption of
// Section 4.5).
//
// Determinism: with the same program, every run produces the identical
// event order (ties in virtual time break by scheduling sequence
// number), so simulated latencies are reproducible to the last digit.
// Observers receive typed SpanEvents as activity completes; the
// internal/trace and internal/analysis layers consume that stream.
package sim
