package beep

import "math/bits"

// This file implements the sparse activity-gated round path of the flat
// engines. After the transient phase of a self-stabilizing execution,
// almost all vertices sit at a fixed point and only a small *frontier*
// still draws randomness or moves state; the dense kernels nevertheless
// walk all n vertices every round. The sparse path tracks activity at
// slab-word granularity (64 vertices per word, one mask bit per word)
// and runs the emit/update kernels only over marked words.
//
// Soundness. The frontier propagation rule is
//
//	act(r) = drewW(r-1) | changedW(r-1)   ∪ external marks,
//
// with act(0) = all words. Skipping an unmarked word is exact: a word
// that neither drew nor changed last round emitted deterministically
// from unchanged state, so this round's emit reproduces the identical
// Sent values without advancing any stream — Sent is already correct.
// The update set is act(r) ∪ the words whose heard values changed this
// round (computed from the sender-bit *flips* of the emit: XOR of
// consecutive sender bitsets, OR-folded over the flipped vertices'
// neighbor rows). An update word outside that set sees the identical
// (state, sent, heard) triple as last round, where the transition
// changed nothing — an identity. External state mutations (Machine
// handles, Corrupt, Restore, Rewire, Reseed) mark their vertices — or
// conservatively everything — active, re-establishing the base case.
//
// Delivery. The emit repack maintains the per-channel sender bitsets
// *incrementally* over active words, recording flipped words. When few
// vertices flipped, delivery is a *delta*: only the neighbors of
// flipped senders can hear something new, so the engine re-gathers
// exactly the touched words and leaves every other heard value in
// place. When many flipped (the transient phase), it falls back to the
// dense scatter/gather kernel, which rewrites heard completely — the
// measured crossover below mirrors GatherCrossoverFactor. Both paths
// produce bit-identical heard arrays (pinned by the forced-delta
// equivalence matrices), so the choice is invisible to traces.
//
// Quiescence. An empty frontier is a proven fixed point, so the round
// is elided in O(1). Fault models that perturb rounds externally
// (sleep, adversaries, noise) disable the sparse path for the round:
// the engine marks everything active and falls back to the dense step,
// whose next sparse round then re-packs and re-delivers densely
// (forceDense), restoring the heard/sender-bit invariants no matter
// what the fault rounds did to them.

// ForceDeltaForTesting is a test hook, not a configuration option: the
// network it is given to takes the delta re-gather on every sparse
// round whose delivery invariants are intact, instead of consulting the
// crossover (a round right after an invalidation still delivers
// densely, as correctness requires). The equivalence matrices use it to
// pin the delta path against the reference loop on every round,
// including the transient rounds where the crossover would pick dense
// delivery. The trace is the same either way; only the work differs.
func ForceDeltaForTesting() Option {
	return func(n *Network) { n.forceDelta = true }
}

// WithStatsObserver installs a callback invoked after every round with
// the round's activity statistics: the number of vertices the emit
// kernel visited and the number of active slab words (the frontier).
// Dense rounds report full activity (n vertices, all words); elided
// fixed-point rounds report zero.
func WithStatsObserver(fn func(round, active, frontierWords int)) Option {
	return func(n *Network) { n.statsObs = fn }
}

// SparseCrossoverFactor is the delta/dense crossover of the sparse
// delivery: the delta path (re-gather only the words touched by
// flipped senders) is taken while its measured cost — 64 × touched
// words × (avgDeg + 1), a row scan per vertex of each touched word —
// stays at or below SparseCrossoverFactor × the estimated cost of the
// dense delivery that would otherwise run: senders × (avgDeg + 1) for
// the scatter, capped at the gather's GatherCrossoverFactor × N
// bound. Two asymmetries the old flipped-count estimate missed, both
// punishing small n (BenchmarkWholeRunFlat4k, BENCH_sparse.json):
// the touched-word count must be measured, because a few dozen
// flipped senders on a scattered graph touch nearly every slab word,
// degenerating the "delta" re-gather into a full gather while the
// dense scatter is far cheaper (sparseMarkTouched computes the exact
// count from the flip records before the decision — work the delta
// path needs anyway); and the delta re-gather gets no early-exit
// discount, because it runs precisely in regimes where few vertices
// beep, so the per-vertex scan usually walks the whole row — unlike
// the dense gather, whose GatherCrossoverFactor × N bound already
// prices in the fast exits of a sender-rich round. Chosen by
// measurement like GatherCrossoverFactor: the activity-decay bench
// (BenchmarkSparseRound, exp E21) shows the two paths within noise of
// each other at the boundary, so the constant is uncritical; both
// produce identical heard arrays.
const SparseCrossoverFactor = 1

// deltaWantsDense applies the sparse-delivery crossover cost model.
func deltaWantsDense(touched, senders, avgDeg, N int) bool {
	deltaCost := touched * 64 * (avgDeg + 1)
	denseCost := senders * (avgDeg + 1)
	if bound := GatherCrossoverFactor * N; denseCost > bound {
		denseCost = bound
	}
	return deltaCost > SparseCrossoverFactor*denseCost
}

// sparseState is the per-network state of the sparse path. All masks
// have one bit per slab word (ceil(words/64) uint64s, words =
// ceil(n/64)); clears are O(n/4096) and thus free at any scale.
type sparseState struct {
	// n is the vertex count the buffers are sized for (0 = never
	// sized); a mismatch triggers a full re-size + markAll.
	n int
	// act gates the emit kernel; actCount is its popcount (frontier
	// word count), giving O(1) empty-frontier detection.
	act      []uint64
	actCount int
	// updW gates the update kernel (act ∪ touched); touchW marks the
	// words whose heard values delta delivery recomputed this round.
	// The kernels' drew/changed output masks are per stripe (flat.go).
	updW, touchW []uint64
	// allActive defers materializing a full act mask (initial state,
	// and after any markAll); forceDense additionally forces the next
	// sparse round to deliver densely and recount senders absolutely,
	// re-establishing the sender-bit/heard invariants after external
	// perturbations (fault rounds, Restore, Reseed, Rewire).
	allActive  bool
	forceDense bool
	// senders[c] is the incrementally maintained popcount of the
	// channel-c sender bitset, feeding the dense scatter/gather
	// crossover without a full recount.
	senders [2]int
	// flipWi/flipBits record the emit repack's flipped words: slab
	// word index plus per-channel XOR of old and new sender bits.
	// Capacity is pre-allocated to the full word count, so steady
	// rounds never allocate.
	flipWi   []int32
	flipBits [2][]uint64
}

// markAll conservatively marks every vertex active and forces the next
// sparse round to rebuild the delivery invariants densely.
func (s *sparseState) markAll() {
	s.allActive = true
	s.forceDense = true
}

// markVertex marks vertex v's slab word active (out-of-range or
// never-sized falls back to markAll).
func (s *sparseState) markVertex(v int) {
	if s.allActive {
		return
	}
	if s.n == 0 || v < 0 || v >= s.n {
		s.markAll()
		return
	}
	wi := v >> 6
	mi, b := wi>>6, uint64(1)<<uint(wi&63)
	if s.act[mi]&b == 0 {
		s.act[mi] |= b
		s.actCount++
	}
}

// ensure sizes the sparse buffers for the network's current vertex
// count. A resize zeroes the sender bitsets and their counts so the
// incremental repack restarts from a consistent (empty) baseline.
func (s *sparseState) ensure(n *Network) {
	N := n.N()
	if s.n == N {
		return
	}
	words := (N + 63) >> 6
	mw := (words + 63) >> 6
	s.act = make([]uint64, mw)
	s.updW = make([]uint64, mw)
	s.touchW = make([]uint64, mw)
	s.flipWi = make([]int32, 0, words)
	n.sizeDeliveryBits()
	for c := 0; c < n.channels; c++ {
		s.flipBits[c] = make([]uint64, 0, words)
		n.sendBits[c].Reset()
	}
	s.senders = [2]int{}
	s.n = N
	s.markAll()
}

// materializeAll writes the deferred all-active state into the mask.
func (s *sparseState) materializeAll() {
	words := (s.n + 63) >> 6
	maskSetAll(s.act, words)
	s.actCount = words
	s.allActive = false
}

// clearMask zeroes an activity mask.
func clearMask(m []uint64) {
	for i := range m {
		m[i] = 0
	}
}

// maskSetAll sets the first words bits of m and clears the rest.
func maskSetAll(m []uint64, words int) {
	full := words >> 6
	for i := 0; i < full; i++ {
		m[i] = ^uint64(0)
	}
	for i := full; i < len(m); i++ {
		m[i] = 0
	}
	if r := words & 63; r != 0 {
		m[full] = uint64(1)<<uint(r) - 1
	}
}

// sparseFaulty reports whether a fault model perturbs rounds this
// round, in which case the engine falls back to the dense step (after
// conservatively invalidating the sparse state).
func (n *Network) sparseFaulty() bool {
	return n.advCount > 0 || n.sleep.enabled() || n.noise.enabled()
}

// sparseUseDense decides this round's delivery: forced dense after an
// invalidation, forced delta under ForceDeltaForTesting, crossover
// otherwise. On every non-forced round it first materializes the
// touched-word mask (the delta path's own first step), so the crossover
// compares the delta re-gather's exact word count, not an estimate.
func (n *Network) sparseUseDense() bool {
	s := &n.sparse
	if s.forceDense {
		return true
	}
	touched := n.sparseMarkTouched()
	if n.forceDelta {
		return false
	}
	return deltaWantsDense(touched, s.senders[0]+s.senders[1], n.avgDegree(), n.N())
}

// stepStriped executes one activity-gated round over the stripes (see
// flat.go): the emit/update kernels run per stripe, each writing its
// own drew/changed masks (OR-folded after the phase), while the
// frontier-sized bookkeeping — repack, flip scatter, delta re-gather —
// runs on the calling goroutine, where it is cheaper than more
// barriers. It is bit-identical to the dense round for every round
// (pinned by the forced-delta equivalence matrices). Fault-model rounds
// take the dense body instead.
func (n *Network) stepStriped() *RunError {
	if n.sparseFaulty() {
		return n.stepStripedDense()
	}
	n.ckRoundSparse = true
	N := n.N()
	s := &n.sparse
	s.ensure(n)
	recount := s.allActive
	if s.allActive {
		s.materializeAll()
	}
	if s.actCount == 0 {
		// Empty frontier: a proven fixed point. Sent and heard already
		// hold this round's signals; no stream or state moves.
		n.roundActive, n.roundFrontier = 0, 0
		return nil
	}
	actEntry := s.actCount
	n.prepareStripes(nil, len(s.act))
	if err := n.runStripes(phaseSparseEmit); err != nil {
		return err
	}
	n.sparseRepack(recount)
	if n.sparseUseDense() {
		n.sizeDeliveryBits()
		n.deliverStriped(s.senders[0] + s.senders[1])
	} else {
		n.gatherWords(s.touchW, [2][]uint64{n.sendBits[0].Words(), n.sendBits[1].Words()}, 0, N, n.rowBuf)
	}
	if s.forceDense {
		// After an invalidation the flip records don't bound which
		// heard values the dense delivery rewrote; update everywhere
		// (exactly the dense round's update set).
		maskSetAll(s.updW, (N+63)>>6)
	} else {
		// Invariants intact: delivery changed heard only inside the
		// touched words, whichever path ran.
		for mi := range s.updW {
			s.updW[mi] = s.act[mi] | s.touchW[mi]
		}
	}
	s.forceDense = false
	if err := n.runStripes(phaseSparseUpdate); err != nil {
		return err
	}
	cnt := 0
	dirty := n.ckDirty.accum(len(s.act))
	probe := n.probe.accum(len(s.act))
	var moved uint64
	for mi := range s.act {
		var a, c uint64
		for i := range n.stripes {
			a |= n.stripes[i].drewW[mi]
			c |= n.stripes[i].changedW[mi]
		}
		a |= c
		s.act[mi] = a
		if dirty != nil {
			dirty[mi] |= a
		}
		if probe != nil {
			probe[mi] |= c
			moved |= c
		}
		cnt += bits.OnesCount64(a)
	}
	if moved != 0 {
		n.probe.curSet = true
	}
	s.actCount = cnt
	n.roundActive = actEntry * 64
	if n.roundActive > N {
		n.roundActive = N
	}
	n.roundFrontier = actEntry
	return nil
}

// sparseRepack maintains the per-channel sender bitsets incrementally
// over the active words, recording each word whose bits flipped (with
// the per-channel XOR masks) and returning the number of flipped
// vertices. When recount is set (the round runs with everything
// active, after an invalidation), the sender counts are recomputed
// absolutely — a dense fallback round may have repacked the bitsets
// without maintaining the counts.
func (n *Network) sparseRepack(recount bool) int {
	s := &n.sparse
	s.flipWi = s.flipWi[:0]
	s.flipBits[0] = s.flipBits[0][:0]
	two := n.channels == 2
	if two {
		s.flipBits[1] = s.flipBits[1][:0]
	}
	if recount {
		s.senders = [2]int{}
	}
	w0s := n.sendBits[0].Words()
	var w1s []uint64
	if two {
		w1s = n.sendBits[1].Words()
	}
	sent := n.sent
	N := n.N()
	flipped := 0
	for mi, m := range s.act {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			wi := mi<<6 + b
			base := wi << 6
			end := base + 64
			if end > N {
				end = N
			}
			var v0, v1 uint64
			for v := base; v < end; v++ {
				bit := uint64(1) << uint(v&63)
				sv := sent[v]
				if sv&Chan1 != 0 {
					v0 |= bit
				}
				if two && sv&Chan2 != 0 {
					v1 |= bit
				}
			}
			f0 := w0s[wi] ^ v0
			var f1 uint64
			if two {
				f1 = w1s[wi] ^ v1
			}
			if recount {
				s.senders[0] += bits.OnesCount64(v0)
				if two {
					s.senders[1] += bits.OnesCount64(v1)
				}
			} else {
				s.senders[0] += bits.OnesCount64(v0) - bits.OnesCount64(w0s[wi])
				if two {
					s.senders[1] += bits.OnesCount64(v1) - bits.OnesCount64(w1s[wi])
				}
			}
			if f0|f1 != 0 {
				w0s[wi] = v0
				if two {
					w1s[wi] = v1
				}
				s.flipWi = append(s.flipWi, int32(wi))
				s.flipBits[0] = append(s.flipBits[0], f0)
				if two {
					s.flipBits[1] = append(s.flipBits[1], f1)
				}
				flipped += bits.OnesCount64(f0 | f1)
			}
		}
	}
	return flipped
}

// sparseMarkTouched rebuilds s.touchW — the mask of slab words
// containing a neighbor of a flipped sender, the only words that can
// hear something new this round — from the repack's flip records, and
// returns its popcount. Delta-delivery rounds re-gather exactly these
// words (leaving every other heard value untouched); the count also
// feeds the crossover decision, and the mask the update-set union, on
// every non-forced round regardless of which delivery runs.
func (n *Network) sparseMarkTouched() int {
	s := &n.sparse
	clearMask(s.touchW)
	g := n.csr
	for i, wi := range s.flipWi {
		f := s.flipBits[0][i]
		if n.channels == 2 {
			f |= s.flipBits[1][i]
		}
		base := int(wi) << 6
		for f != 0 {
			u := base + bits.TrailingZeros64(f)
			f &= f - 1
			var row []int32
			if g != nil {
				row = g.Neighbors(u)
			} else {
				row = n.g.NeighborsInto(u, n.rowBuf)
			}
			for _, x := range row {
				sw := int(x) >> 6
				s.touchW[sw>>6] |= 1 << uint(sw&63)
			}
		}
	}
	touched := 0
	for _, m := range s.touchW {
		touched += bits.OnesCount64(m)
	}
	return touched
}

// gatherWords recomputes heard[v] for every vertex of [lo, hi) in the
// slab words marked in mask, by probing the neighbor bits of the
// per-channel sender words (with the same full-mask early exit as
// deliverRange). The network passes [0, N) and its own sender bitsets,
// which are exact after sparseRepack, so the recomputed values equal
// the dense delivery's; a Partition passes its range and the
// coordinator-merged words. buf is the neighbor scratch for
// synthesizing backends.
func (n *Network) gatherWords(mask []uint64, words [2][]uint64, lo, hi int, buf []int32) {
	w0, w1 := words[0], words[1]
	if n.channels == 1 {
		w1 = nil
	}
	full := n.fullMask
	heard := n.heard
	g := n.csr
	for mi, m := range mask {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			base := (mi<<6 + b) << 6
			vlo, vhi := max(base, lo), min(base+64, hi)
			for v := vlo; v < vhi; v++ {
				var row []int32
				if g != nil {
					row = g.Neighbors(v)
				} else {
					row = n.g.NeighborsInto(v, buf)
				}
				var h Signal
				for _, u := range row {
					sh := uint(u) & 63
					h |= Signal((w0[u>>6] >> sh) & 1)
					if w1 != nil {
						h |= Signal((w1[u>>6]>>sh)&1) << 1
					}
					if h == full {
						break
					}
				}
				heard[v] = h
			}
		}
	}
}
