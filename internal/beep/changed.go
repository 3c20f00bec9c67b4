package beep

// Changed-word tracking for the legality probe. The sparse round paths
// already know which slab words (64-vertex groups) changed machine
// state in a round — their changedW mask. A stop check that re-reads
// every vertex's state after every round re-derives that knowledge in
// O(n); TakeChangedWords hands it out instead, so a consumer (the
// core.State stabilization detector) re-reads only the words that
// moved, and nothing at all after an elided round.
//
// Invariant. Between two takes by the same owner, every vertex whose
// machine state may have changed lies in a marked word, or the mask is
// saturated (all): sparse rounds OR in their exact changedW, every
// round or mutation the masks do not describe saturates it — the same
// sites that saturate the checkpoint dirty tracker (dense and
// fault-model rounds, Corrupt and Machine marks per vertex,
// RandomizeAll, Restore, Reseed, Rewire, partition rounds).

// changeMask is the probe-owned changed-word mask: one bit per slab
// word, the shape of sparseState.act. It is double-buffered so a take
// can hand out the accumulated words without copying: cur accumulates,
// out is the mask handed out by the last take, and each is cleared only
// when it may hold bits.
type changeMask struct {
	// owner is the consumer ID of the last take (0 = none); a take by
	// any other ID reports all, because the words it missed went to the
	// owner.
	owner uint64
	// all saturates the mask: everything may have changed.
	all bool
	// n is the vertex count the masks are sized for (0 = never sized,
	// which saturates every mark until the first take sizes them).
	n        int
	cur, out []uint64
	// curSet / outSet record that cur / out may hold set bits.
	curSet, outSet bool
}

func (c *changeMask) markAll() { c.all = true }

// markVertex marks v's slab word (out-of-range or never-sized
// saturates instead).
func (c *changeMask) markVertex(v int) {
	if c.all {
		return
	}
	if v < 0 || v >= c.n {
		c.all = true
		return
	}
	wi := v >> 6
	c.cur[wi>>6] |= 1 << uint(wi&63)
	c.curSet = true
}

// accum returns the mask a sparse round ORs its changed words into, or
// nil when the mask is saturated or sized for another vertex count (then
// it saturates). A caller that ORs in a non-zero word sets curSet.
func (c *changeMask) accum(mw int) []uint64 {
	if c.all {
		return nil
	}
	if len(c.cur) != mw {
		c.all = true
		return nil
	}
	return c.cur
}

// TakeChangedWords hands the slab words whose machine state may have
// changed since owner's previous take to owner, and resets the mask.
// Word wi covers vertices [64·wi, min(n, 64·wi+64)); bit wi&63 of
// mask[wi>>6] marks it. all reports that the mask cannot bound the
// changes — the first take, a take by a different owner than the last
// one, or any round or mutation the engine does not track per word —
// and the caller must re-read everything. A nil mask with all false
// means nothing changed (every round since the last take was elided or
// left state untouched). The returned mask is read-only and valid
// until the next TakeChangedWords call.
//
// owner is a non-zero ID unique to the consumer: two consumers
// alternating on one network each get all, so neither misses the words
// the other took. An ID rather than a pointer keeps the network from
// retaining a consumer it has outlived.
func (n *Network) TakeChangedWords(owner uint64) (mask []uint64, all bool) {
	c := &n.probe
	N := n.N()
	if mw := ((N+63)>>6 + 63) >> 6; c.n != N || len(c.cur) != mw {
		c.cur, c.out = make([]uint64, mw), make([]uint64, mw)
		c.curSet, c.outSet = false, false
		c.n = N
		c.all = true
	}
	if c.outSet {
		clearMask(c.out)
		c.outSet = false
	}
	all = c.all || owner == 0 || c.owner != owner
	c.owner, c.all = owner, false
	if all {
		if c.curSet {
			clearMask(c.cur)
			c.curSet = false
		}
		return nil, true
	}
	if !c.curSet {
		return nil, false
	}
	c.cur, c.out = c.out, c.cur
	c.curSet, c.outSet = false, true
	return c.out, false
}
