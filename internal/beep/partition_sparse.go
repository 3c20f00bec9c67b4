package beep

import (
	"fmt"
	"math/bits"
)

// This file implements the round protocol of Partition, the
// distributed engine's execution window: the sparse (delta) exchange.
// The single-process sparse engine (sparse.go) gates the kernels on
// per-word activity masks and delivers heard deltas by re-gathering
// only the words touched by flipped senders; here the same invariants
// are split across the coordinator exchange:
//
//	drew := p.EmitLocalSparse()          // kernels over active own words,
//	                                     // pack + diff vs the own baseline
//	wis, vals := p.SparseUpload(c)       // upload: only CHANGED own words
//	p.ApplyDeltaWord(c, wi, merged)      // download: only changed merged
//	                                     // words; flips mark touched words
//	changed := p.UpdateLocalSparse()     // re-gather touched, update
//	                                     // act ∪ touched, advance frontier
//
// Soundness is the single-process argument verbatim: a word outside the
// frontier emitted deterministically from unchanged state, so its sent
// values and packed sender bits are already correct; a word the
// coordinator did not send back has an unchanged merged value, so every
// heard value it feeds is already correct; an update word outside
// act ∪ touched sees the identical (state, sent, heard) triple as last
// round. The partition path has no dense fallback and no crossover —
// the delta is always exact, and the fault models that would perturb it
// are rejected at Partition construction already.
//
// ResetSparse re-establishes the base case after any restore: all own
// words active, zeroed upload/download baselines on both sides of the
// wire, and heard reset to Silent (matching the all-zero sender words),
// so the first round after a rewind repacks and re-exchanges everything
// that beeps.

// partSparse is the sparse-round state of one Partition. All masks have
// one bit per slab word over the GLOBAL word index space (so delta
// downloads can mark foreign-edge words directly); only bits of the
// partition's own words [wlo, whi] are ever set.
type partSparse struct {
	// wlo/whi bound the partition's slab words (inclusive; whi < wlo for
	// an empty range) and ownWords counts them.
	wlo, whi, ownWords int
	// act gates the emit kernel; actCount is its popcount (the range's
	// frontier word count).
	act      []uint64
	actCount int
	// allActive defers materializing the all-own-words mask (after
	// ResetSparse).
	allActive bool
	// drewW / changedW are the kernels' output masks; updW gates the
	// update kernel (act ∪ touched); touchW accumulates the words whose
	// heard values the downloaded deltas touched.
	drewW, changedW, updW, touchW []uint64
	// own[c] holds the partition's packed channel-c sender words of the
	// previous round (foreign bits zero) — the upload-delta baseline.
	// Distinct from Partition.words, which holds the coordinator-merged
	// GLOBAL bitset maintained by ApplyDeltaWord.
	own [2][]uint64
	// upWi/upVal[c] list the own words whose packed value changed this
	// round — the upload. Capacity is the own word count, so steady
	// rounds never allocate.
	upWi  [2][]int32
	upVal [2][]uint64
}

// EnableSparse allocates the partition's round state (EmitLocalSparse /
// SparseUpload / ApplyDeltaWord / UpdateLocalSparse) and resets it to
// the base case (see ResetSparse). Call it once before the first round.
func (p *Partition) EnableSparse() {
	n := p.net
	words := (n.N() + 63) >> 6
	mw := (words + 63) >> 6
	sp := &partSparse{wlo: 0, whi: -1}
	if p.lo < p.hi {
		sp.wlo, sp.whi = p.lo>>6, (p.hi-1)>>6
		sp.ownWords = sp.whi - sp.wlo + 1
	}
	sp.act = make([]uint64, mw)
	sp.drewW = make([]uint64, mw)
	sp.changedW = make([]uint64, mw)
	sp.updW = make([]uint64, mw)
	sp.touchW = make([]uint64, mw)
	for c := 0; c < n.channels; c++ {
		sp.own[c] = make([]uint64, words)
		sp.upWi[c] = make([]int32, 0, sp.ownWords)
		sp.upVal[c] = make([]uint64, 0, sp.ownWords)
	}
	p.sparse = sp
	p.ResetSparse()
}

// ResetSparse rewinds the sparse state to the base case: every own word
// active, upload and download baselines zeroed, heard[lo:hi) Silent.
// Callers invoke it after Network.Restore — the restored machine state
// invalidates every incremental baseline — and the coordinator must
// zero its side of the exchange in the same breath.
func (p *Partition) ResetSparse() {
	sp := p.sparse
	if sp == nil {
		return
	}
	n := p.net
	for c := 0; c < n.channels; c++ {
		clearMask(p.words[c])
		clearMask(sp.own[c])
		sp.upWi[c] = sp.upWi[c][:0]
		sp.upVal[c] = sp.upVal[c][:0]
	}
	clearMask(sp.touchW)
	sp.allActive = true
	// The restore that triggered the reset replaced the machine and
	// stream state wholesale; the state-delta baseline is stale too.
	p.ckDirtyAll = true
	for v := p.lo; v < p.hi; v++ {
		n.heard[v] = Silent
	}
}

// materializeAll writes the deferred all-own-words state into the mask.
func (sp *partSparse) materializeAll() {
	clearMask(sp.act)
	for wi := sp.wlo; wi <= sp.whi; wi++ {
		sp.act[wi>>6] |= 1 << uint(wi&63)
	}
	sp.actCount = sp.ownWords
	sp.allActive = false
}

// EmitLocalSparse runs the emit kernel over the partition's active
// words, re-packs them, and records the upload delta (the own words
// whose packed sender bits changed). An empty frontier is a local fixed
// point: no kernel runs, no stream moves, and the upload is empty. It
// reports whether the kernel consumed randomness. A kernel panic is
// contained into a *RunError and poisons the network like TryStep.
func (p *Partition) EmitLocalSparse() (drew bool, err error) {
	n := p.net
	if n.closed {
		return false, ErrClosed
	}
	if n.failed != nil {
		return false, n.failed
	}
	sp := p.sparse
	if sp == nil {
		return false, fmt.Errorf("beep: EmitLocalSparse before EnableSparse")
	}
	if sp.allActive {
		sp.materializeAll()
	}
	env := &p.env
	env.Sent, env.Heard, env.Srcs = n.sent, n.heard, n.srcs
	env.Skip = nil
	env.Drew, env.Changed = false, false
	clearMask(sp.drewW)
	for c := 0; c < n.channels; c++ {
		sp.upWi[c] = sp.upWi[c][:0]
		sp.upVal[c] = sp.upVal[c][:0]
	}
	if sp.actCount == 0 {
		return false, nil
	}
	if rerr := n.rangeKernel("emit", env, sp.act, sp.drewW, p.lo, p.hi); rerr != nil {
		n.failed = rerr
		return false, rerr
	}
	p.sparsePack()
	return env.Drew, nil
}

// sparsePack re-packs the active own words from sent and diffs them
// against the own baseline, appending changed words to the upload
// lists. Boundary words are clamped to the partition's own vertices
// (foreign bits stay zero), so coordinator-side per-partition values
// OR cleanly across adjacent owners.
func (p *Partition) sparsePack() {
	n := p.net
	sp := p.sparse
	two := n.channels == 2
	sent := n.sent
	for mi, m := range sp.act {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			wi := mi<<6 + b
			base := wi << 6
			lo, hi := base, base+64
			if lo < p.lo {
				lo = p.lo
			}
			if hi > p.hi {
				hi = p.hi
			}
			var v0, v1 uint64
			for v := lo; v < hi; v++ {
				bit := uint64(1) << uint(v&63)
				sv := sent[v]
				if sv&Chan1 != 0 {
					v0 |= bit
				}
				if two && sv&Chan2 != 0 {
					v1 |= bit
				}
			}
			if sp.own[0][wi] != v0 {
				sp.own[0][wi] = v0
				sp.upWi[0] = append(sp.upWi[0], int32(wi))
				sp.upVal[0] = append(sp.upVal[0], v0)
			}
			if two && sp.own[1][wi] != v1 {
				sp.own[1][wi] = v1
				sp.upWi[1] = append(sp.upWi[1], int32(wi))
				sp.upVal[1] = append(sp.upVal[1], v1)
			}
		}
	}
}

// SparseUpload returns the channel-c upload delta recorded by the last
// EmitLocalSparse: the own word indices whose packed value changed,
// with the new values, in ascending order. The slices alias partition
// storage and are overwritten by the next EmitLocalSparse.
func (p *Partition) SparseUpload(c int) (wis []int32, vals []uint64) {
	return p.sparse.upWi[c], p.sparse.upVal[c]
}

// ApplyDeltaWord installs one coordinator-merged sender word that
// changed since the last round, and marks the own slab words containing
// a neighbor of any flipped bit as touched — exactly the vertices whose
// heard value can have changed. Unchanged installs are no-ops, so
// replayed deltas are idempotent.
func (p *Partition) ApplyDeltaWord(c, wi int, w uint64) {
	sp := p.sparse
	n := p.net
	old := p.words[c][wi]
	if old == w {
		return
	}
	p.words[c][wi] = w
	f := old ^ w
	base := wi << 6
	for f != 0 {
		u := base + bits.TrailingZeros64(f)
		f &= f - 1
		var row []int32
		if n.csr != nil {
			row = n.csr.Neighbors(u)
		} else {
			row = n.g.NeighborsInto(u, p.rowBuf)
		}
		for _, x := range row {
			if int(x) < p.lo || int(x) >= p.hi {
				continue
			}
			sw := int(x) >> 6
			sp.touchW[sw>>6] |= 1 << uint(sw&63)
		}
	}
}

// UpdateLocalSparse re-gathers heard for the touched words, runs the
// update kernel over act ∪ touched, advances the frontier to
// drewW | changedW, and increments the round counter. It reports
// whether any machine state changed, with the same panic containment as
// EmitLocalSparse.
func (p *Partition) UpdateLocalSparse() (changed bool, err error) {
	n := p.net
	if n.closed {
		return false, ErrClosed
	}
	if n.failed != nil {
		return false, n.failed
	}
	sp := p.sparse
	if sp == nil {
		return false, fmt.Errorf("beep: UpdateLocalSparse before EnableSparse")
	}
	n.gatherWords(sp.touchW, p.words, p.lo, p.hi, p.rowBuf)
	for mi := range sp.updW {
		sp.updW[mi] = sp.act[mi] | sp.touchW[mi]
	}
	clearMask(sp.changedW)
	if rerr := n.rangeKernel("update", &p.env, sp.updW, sp.changedW, p.lo, p.hi); rerr != nil {
		n.failed = rerr
		return false, rerr
	}
	// The end-of-round activity union is exactly the set of own words
	// that drew a stream or changed machine state this round (the
	// dirty-accumulation invariant, see delta.go); fuse the state-delta
	// accumulation into the same pass.
	dirty := p.ckDirty
	if p.ckDirtyAll {
		dirty = nil
	}
	cnt := 0
	for mi := range sp.act {
		a := sp.drewW[mi] | sp.changedW[mi]
		sp.act[mi] = a
		cnt += bits.OnesCount64(a)
		if dirty != nil {
			dirty[mi] |= a
		}
	}
	sp.actCount = cnt
	clearMask(sp.touchW)
	// A partition steps only its own range; the network-wide probe mask
	// does not describe that, so a probe of this network re-reads
	// everything.
	n.probe.markAll()
	n.round++
	return p.env.Changed, nil
}

// FrontierWords returns the partition's current frontier word count
// (0 = local fixed point).
func (p *Partition) FrontierWords() int {
	if p.sparse == nil {
		return 0
	}
	if p.sparse.allActive {
		return p.sparse.ownWords
	}
	return p.sparse.actCount
}
