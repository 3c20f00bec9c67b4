package beep

import (
	"runtime/debug"

	"repro/internal/bitset"
)

// This file implements the FlatParallel engine's dense round: the flat
// cohort kernels of flat.go sharded over the sense-reversing worker
// pool of network.go. Fault-free rounds run the activity-gated step of
// sparse.go (stepFlatParallelSparse), which reuses the pack, scatter,
// merge and gather phases below whenever its crossover picks dense
// delivery; the full dense round runs on fault-model rounds only.
//
// Layout. The pool's shards are contiguous vertex stripes padded to
// 64-vertex multiples, so a stripe [lo, hi) owns exactly the 64-bit
// words [lo/64, ceil(hi/64)) of every per-vertex bitset — stripes write
// disjoint cache lines of the sent/heard signal arrays AND disjoint
// words of the sender/heard bitsets, with no atomics anywhere on the
// hot path.
//
// Round structure (one barrier after each phase):
//
//	emit    — worker i runs EmitRange(lo, hi) on its private FlatEnv
//	pack    — worker i packs sent[lo:hi) into its words of the
//	          per-channel sender bitsets, counting its senders
//	          (coordinator sums the counts and applies the same
//	          sparse/dense cost model as the sequential flat engine,
//	          now fed by per-worker partial counts)
//	sparse: scatter — worker i ORs the CSR rows of the senders found in
//	          ITS word range into its own private full-length heard
//	          masks (writes land anywhere, but only in worker-private
//	          storage)
//	        merge   — worker i owns its word range of the final heard
//	          bitsets: it ORs word wi of every worker's private mask
//	          (ascending worker order — OR is commutative, so the
//	          result is deterministic regardless) and composes the
//	          heard signals of its own vertices
//	dense:  gather  — worker i runs the reference early-exit neighbor
//	          scan deliverRange(lo, hi)
//	update  — worker i runs UpdateRange(lo, hi)
//
// Determinism. Each vertex consumes randomness only from its own
// private stream, and each stripe touches only its own vertices'
// streams and sent entries, so the draws every vertex sees are
// identical to the sequential flat engine's — executions are
// bit-for-bit trace-equivalent for a fixed seed, independent of worker
// count and scheduling (enforced by TestEngineTraceEquivalence,
// TestFlatParallelWorkerCountInvariance and the churn/chaos matrices).
// The pre-phases that do consume shared streams (sleep, adversaries,
// noise) run sequentially on the coordinator, exactly as in the other
// engines.

// flatWorker is the per-worker state of the FlatParallel engine. The
// trailing pad keeps the per-round mutable fields of adjacent workers
// on different cache lines (the bitset payloads are heap-allocated
// elsewhere; only the counters/flags would otherwise share a line).
type flatWorker struct {
	// env is the worker's private kernel environment; Drew/Changed are
	// per-stripe and OR-folded by the coordinator after the barrier.
	env FlatEnv
	// scratch[c] is the worker's private heard accumulation mask for
	// channel c, full network length, valid only when active.
	scratch [2]bitset.Set
	// row is the worker's private neighbor scratch for synthesizing
	// backends, allocated lazily on first scatter; nil on the
	// materialized fast path.
	row []int32
	// senders is the worker's pack-phase sender count (all channels).
	senders int
	// drewW / changedW are the worker's private sparse-path output
	// masks (full mask length, lazily sized; see sparse.go). Each
	// worker clears its own mask at phase start and the coordinator
	// OR-folds them after the barrier.
	drewW, changedW []uint64
	// active reports that the worker reset and scattered into scratch
	// this round; merge skips inactive workers (their scratch words are
	// stale or never allocated).
	active bool
	_      [64]byte // cache-line padding between adjacent workers
}

// stepFlatParallel executes one dense synchronous round through the
// sharded flat kernels. Machine panics inside a kernel stripe are
// contained before the barrier join, so a panicking cohort pass never
// orphans the pool; the error carries Vertex = -1 (the kernel processes
// its stripe as a whole) and the failing phase.
func (n *Network) stepFlatParallel() *RunError {
	n.drawSleep()
	n.drawAdversaries()
	skip := n.buildFlatSkip()
	for c := 0; c < n.channels; c++ {
		n.sizeSendBits(c)
		if hb := &n.heardBits[c]; hb.Len() != n.N() {
			hb.Resize(n.N())
		}
	}
	p := n.workers
	for i := range p.flat {
		w := &p.flat[i]
		w.env.Sent, w.env.Heard, w.env.Srcs = n.sent, n.heard, n.srcs
		w.env.Skip = skip
		w.env.Drew, w.env.Changed = false, false
		w.senders = 0
		w.active = false
	}
	p.runPhase(phaseFlatEmit)
	if err := p.takeError(); err != nil {
		return err
	}
	p.runPhase(phaseFlatPack)
	senders := 0
	for i := range p.flat {
		senders += p.flat[i].senders
	}
	if deliveryWantsGather(senders, n.avgDegree(), n.N()) {
		p.runPhase(phaseFlatGather)
	} else {
		p.runPhase(phaseFlatScatter)
		p.runPhase(phaseFlatMerge)
	}
	n.applyNoise()
	p.runPhase(phaseFlatUpdate)
	return p.takeError()
}

// flatKernelRange invokes one cohort-kernel stripe (phase "emit" or
// "update") on the worker's private environment, with the same panic
// containment contract as emitRange/updateRange: the recovery happens
// inside this frame, so the worker returns normally and still joins its
// barrier.
func (n *Network) flatKernelRange(phase string, w *flatWorker, lo, hi int) (rerr *RunError) {
	defer func() {
		if r := recover(); r != nil {
			rerr = &RunError{
				Vertex: -1, Round: n.round + 1, Phase: phase,
				Engine: n.engine, Recovered: r, Stack: debug.Stack(),
			}
		}
	}()
	if phase == "emit" {
		n.flatOps.EmitRange(&w.env, lo, hi)
	} else {
		n.flatOps.UpdateRange(&w.env, lo, hi)
	}
	return nil
}

// flatPackRange packs the worker's vertex stripe into its words of the
// per-channel sender bitsets and records the stripe's sender count.
func (n *Network) flatPackRange(w *flatWorker, lo, hi int) {
	count := 0
	for c := 0; c < n.channels; c++ {
		count += n.packSendersRange(c, lo, hi)
	}
	w.senders = count
}

// flatScatterRange ORs the CSR rows of the senders found in the
// worker's word range into the worker's private heard masks. A stripe
// with no senders leaves its scratch untouched (and unallocated on the
// first rounds) and stays inactive, so the merge phase skips it.
func (n *Network) flatScatterRange(w *flatWorker, lo, hi int) {
	if w.senders == 0 {
		return
	}
	wlo, whi := lo>>6, (hi+63)>>6
	if n.csr == nil && w.row == nil {
		w.row = make([]int32, n.g.MaxDegree())
	}
	for c := 0; c < n.channels; c++ {
		sc := &w.scratch[c]
		if sc.Len() != n.N() {
			sc.Resize(n.N())
		} else {
			sc.Reset()
		}
		n.scatterWordsInto(c, sc.Words(), wlo, whi, w.row)
	}
	w.active = true
}

// flatMergeRange merges the word range owned by the stripe [lo, hi):
// for each of its words it ORs every active worker's private mask into
// the final heard bitsets, then composes the heard signals of its own
// vertices. Each word of the heard bitsets is written by exactly one
// worker (word-range ownership), so the merge needs no atomics; reads
// of other workers' masks are ordered by the scatter barrier.
func (n *Network) flatMergeRange(p *workerPool, lo, hi int) {
	wlo, whi := lo>>6, (hi+63)>>6
	for c := 0; c < n.channels; c++ {
		out := n.heardBits[c].Words()
		for wi := wlo; wi < whi; wi++ {
			var acc uint64
			for j := range p.flat {
				if p.flat[j].active {
					acc |= p.flat[j].scratch[c].Words()[wi]
				}
			}
			out[wi] = acc
		}
	}
	n.composeHeardRange(lo, hi)
}
