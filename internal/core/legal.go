package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/beep"
	"repro/internal/bitset"
	"repro/internal/graph"
)

// LevelExporter is the bulk level accessor implemented by the machine
// slabs of the core protocols (Alg1, Alg2, AdaptiveAlg1). A network
// built from a beep.BatchProtocol exposes it through Network.BulkState,
// and State.Refresh uses it to capture (ℓ, ℓmax) pairs in linear passes
// over contiguous storage — all of them, or only the slab words the
// engine reports changed — instead of one interface assertion plus two
// virtual calls per vertex per round in the stabilization stop check.
type LevelExporter interface {
	// ExportLevels writes ℓ(v) and ℓmax(v) of every vertex v into the
	// destination slices, which must have length n. When MutableCaps
	// reports false, callers that have already captured the caps may
	// pass a nil caps slice to export levels only.
	ExportLevels(levels, caps []int32)
	// ExportLevelRange is ExportLevels restricted to the vertices
	// [lo, hi): it writes only those positions of the destination
	// slices (length n), with the same nil-caps rule.
	ExportLevelRange(levels, caps []int32, lo, hi int)
	// TwoChannel reports Algorithm 2 (two-channel) semantics, under
	// which MIS membership is ℓ = 0 rather than ℓ = -ℓmax.
	TwoChannel() bool
	// MutableCaps reports whether ℓmax values can change during an
	// execution (true only for the adaptive heuristic). When false,
	// ℓmax must be a pure function of (vertex, graph, protocol), so
	// callers may capture caps once and skip re-exporting and
	// re-diffing them on every round.
	MutableCaps() bool
}

// State is an analyst's snapshot of one execution instant: the levels
// and caps of all vertices. It supports the Section 3 machinery (I_t,
// S_t, μ_t, η_t, prominent vertices) used for stabilization detection
// and the lemma-level experiments.
//
// A State that is Refreshed every round doubles as an *incremental*
// stabilization detector. Refresh asks the network which slab words
// changed since this State's last Refresh (beep.Network.
// TakeChangedWords) and re-exports only those; the detector then diffs
// only them and applies each level change through two per-vertex
// neighbor counters, so a round in which nothing moved costs O(1) and a
// moved vertex costs O(1) plus its degree only when it crosses the cap
// boundary or flips I_t membership. Networks and rounds the engine does
// not track per word (the reference loop, fault-model rounds, external
// mutations, a different network or a second State) fall back to a
// full export and an O(n) diff. The detector is purely observational —
// its answers are bit-identical to the full recompute for every
// snapshot.
type State struct {
	g graph.Topology
	// csr is the materialized fast path (non-nil iff g is a
	// *graph.Graph); synthesizing backends decode neighbor rows into
	// rowBuf instead. A scan whose body decodes further rows takes its
	// outer row from rowBuf2 (neighborsNested), so nested decodes never
	// share one scratch row.
	csr    *graph.Graph
	rowBuf []int32
	// rowBuf2 is the outer-row scratch of the nested scans: the
	// detector's cap-crossing walk (whose I_t flips walk their own rows)
	// and LightBeepingMass (which decodes rows through Mu).
	rowBuf2 []int32
	levels  []int32
	caps    []int32
	// twoChannel marks Algorithm 2 semantics: MIS membership is ℓ = 0
	// with no ℓ = 0 neighbor, rather than ℓ = -ℓmax with all-cap
	// neighbors.
	twoChannel bool
	// id is the State's changed-word consumer ID (see
	// beep.Network.TakeChangedWords), drawn from probeIDs on first use.
	id uint64
	// src and srcLE are the network and exporter the last Refresh read.
	// The changed-word path applies only to the same pair; srcLE also
	// marks the (immutable) caps in s.caps as already captured, so
	// steady-state Refreshes export levels only.
	src   *beep.Network
	srcLE LevelExporter
	// capsMutable records whether the caps of the current source can
	// change between Refreshes; when false the detector skips the caps
	// half of its diff as well.
	capsMutable bool
	// excluded masks the non-cooperating (adversarial) vertices out of
	// the legality machinery: an excluded vertex is never in I_t, counts
	// as vacuously stable, and is invisible to its neighbors' membership
	// and stability scans — so Stabilized() and VerifyMIS() speak about
	// the correct induced subgraph, the only set the self-stabilization
	// guarantee covers. nil means every vertex cooperates.
	excluded []bool
	// exGen counts SetExcluded calls so the detector knows to rebuild
	// when the mask changes (mirroring beep.Network.AdversaryEpoch).
	exGen uint64

	// pendAll / pendWords record what Refresh re-captured since the
	// detector last synchronized: everything, or the marked slab words
	// (one bit per 64-vertex word, the engine's mask shape; pendSet
	// reports that some bit may be set).
	pendAll   bool
	pendSet   bool
	pendWords []uint64

	det detector
}

// detector is the incremental I_t/S_t maintenance state. The masks are
// uint64 bitsets (one bit per vertex, word-at-a-time scans); unstable
// counts |V \ S_t| so the stabilization predicate is a single integer
// comparison once the masks are synchronized.
//
// Counter invariants, for every vertex v after a sync:
//
//	notCap[v] = |{u ∈ N(v) : u correct, ℓ(u) ≠ ℓmax(u)}|
//	misNbr[v] = |{u ∈ N(v) : u ∈ I_t}|
//	v ∈ I_t  ⇔ v correct ∧ ℓ(v) = want(v) ∧ notCap[v] = 0
//	v ∈ S_t  ⇔ v excluded ∨ v ∈ I_t ∨ misNbr[v] > 0
//
// where want(v) is -ℓmax(v) under Algorithm 1 and 0 under Algorithm 2,
// all over the levels in prevLevels (and caps in prevCaps when mutable).
type detector struct {
	g   graph.Topology
	two bool
	n   int
	// capsMut mirrors State.capsMutable at rebuild time; when false the
	// diff compares levels only and prevCaps is not kept.
	capsMut bool
	// exGen mirrors State.exGen at rebuild time; a mismatch forces a
	// full re-seed so exclusion-mask changes are never applied
	// incrementally against stale masks.
	exGen uint64
	// stale forces a rebuild: Refresh re-exported immutable caps (a new
	// source), which the levels-only diff cannot see.
	stale bool
	// prevLevels/prevCaps are the levels (and mutable caps) the masks
	// and counters were last derived from; the diff against them yields
	// the vertices that moved.
	prevLevels []int32
	prevCaps   []int32

	notCap []int32
	misNbr []int32

	mis      bitset.Set // I_t membership
	stable   bitset.Set // S_t = I_t ∪ N(I_t)
	unstable int        // |V| - |S_t|
}

// probeIDs hands out State consumer IDs for beep.Network.TakeChangedWords.
var probeIDs atomic.Uint64

// Snapshot captures the current levels of a network running Algorithm 1
// or Algorithm 2. It returns an error if any machine does not expose
// levels (i.e. is not one of the core protocols).
func Snapshot(net *beep.Network) (*State, error) {
	st := &State{}
	if err := st.Refresh(net); err != nil {
		return nil, err
	}
	return st, nil
}

// Refresh re-captures the network's current levels into the receiver,
// reusing its buffers. It is the allocation-free path for callers that
// snapshot every round (the stabilization detector); a zero State is a
// valid receiver. Networks built from a BatchProtocol (all core
// protocols) take the bulk-export fast path: when the receiver last
// read the same network, only the slab words the engine reports changed
// since then are exported (nothing after an elided round); otherwise
// one linear pass over the machine slab, no per-vertex interface
// dispatch.
func (s *State) Refresh(net *beep.Network) error {
	n := net.N()
	if g := net.Graph(); g != s.g {
		s.setGraph(g)
	}
	if cap(s.levels) < n {
		s.levels = make([]int32, n)
		s.caps = make([]int32, n)
		s.srcLE = nil
	}
	s.levels = s.levels[:n]
	s.caps = s.caps[:n]
	le, ok := net.BulkState().(LevelExporter)
	if !ok {
		s.src, s.srcLE = nil, nil
		s.pendAll = true
		s.capsMutable = true
		s.twoChannel = false
		for v := 0; v < n; v++ {
			m, ok := net.Machine(v).(Leveled)
			if !ok {
				return fmt.Errorf("core: machine of vertex %d (%T) does not expose levels", v, net.Machine(v))
			}
			s.levels[v] = int32(m.Level())
			s.caps[v] = int32(m.Cap())
			if _, is2 := net.Machine(v).(*alg2Machine); is2 {
				s.twoChannel = true
			}
		}
		return nil
	}
	if s.id == 0 {
		s.id = probeIDs.Add(1)
	}
	mut := le.MutableCaps()
	mask, all := net.TakeChangedWords(s.id)
	switch {
	case all || net != s.src || le != s.srcLE:
		if !mut && le == s.srcLE {
			le.ExportLevels(s.levels, nil)
		} else {
			le.ExportLevels(s.levels, s.caps)
			if !mut {
				// The levels-only diff cannot see a new source's caps.
				s.det.stale = true
			}
		}
		s.pendAll = true
	case mask != nil:
		s.exportWords(le, mask, mut)
	}
	s.src, s.srcLE = net, le
	s.capsMutable = mut
	s.twoChannel = le.TwoChannel()
	return nil
}

// exportWords re-exports the slab words marked in mask (maximal runs of
// consecutive words in one call each) and records them as pending for
// the detector.
func (s *State) exportWords(le LevelExporter, mask []uint64, mutCaps bool) {
	n := len(s.levels)
	if mw := len(mask); len(s.pendWords) != mw {
		s.pendWords = make([]uint64, mw)
		s.pendAll = true
	}
	caps := s.caps
	if !mutCaps {
		caps = nil
	}
	for mi, m := range mask {
		if m == 0 {
			continue
		}
		s.pendWords[mi] |= m
		s.pendSet = true
		for m != 0 {
			b := bits.TrailingZeros64(m)
			run := bits.TrailingZeros64(^(m >> uint(b)))
			lo := (mi<<6 + b) << 6
			hi := (mi<<6 + b + run) << 6
			if hi > n {
				hi = n
			}
			le.ExportLevelRange(s.levels, caps, lo, hi)
			m &^= (uint64(1)<<uint(run) - 1) << uint(b)
		}
	}
}

// setGraph installs the snapshot's topology, deriving the materialized
// fast path or the decode scratch as appropriate.
func (s *State) setGraph(g graph.Topology) {
	s.g = g
	s.csr, _ = g.(*graph.Graph)
	if s.csr == nil {
		if d := g.MaxDegree(); cap(s.rowBuf) < d {
			s.rowBuf = make([]int32, d)
			s.rowBuf2 = make([]int32, d)
		}
	}
}

// neighbors returns the canonical neighbor row of v: an aliased CSR
// slice on the materialized fast path, a decode into the scratch row
// otherwise. The result is valid until the next neighbors call.
func (s *State) neighbors(v int) []int32 {
	if s.csr != nil {
		return s.csr.Neighbors(v)
	}
	return s.g.NeighborsInto(v, s.rowBuf)
}

// neighborsNested is the second-scratch sibling of neighbors, for the
// outer row of a scan whose body decodes further rows.
func (s *State) neighborsNested(v int) []int32 {
	if s.csr != nil {
		return s.csr.Neighbors(v)
	}
	return s.g.NeighborsInto(v, s.rowBuf2)
}

// NewState builds a snapshot directly from level and cap slices
// (single-channel semantics), for tests and analytical tooling. The
// slices are copied.
func NewState(g graph.Topology, levels, caps []int) *State {
	s := &State{levels: make([]int32, len(levels)), caps: make([]int32, len(caps)), capsMutable: true}
	s.setGraph(g)
	for i, l := range levels {
		s.levels[i] = int32(l)
	}
	for i, c := range caps {
		s.caps[i] = int32(c)
	}
	return s
}

// NewStateWith builds a snapshot from exported int32 level and cap
// slices with an explicit channel discipline — the form distributed
// coordinators assemble from per-partition level exports (see
// LevelExporter). The slices are copied; twoChannel selects Algorithm 2
// membership semantics (ℓ = 0) over Algorithm 1 (ℓ = -cap).
func NewStateWith(g graph.Topology, levels, caps []int32, twoChannel bool) *State {
	s := &State{
		levels:      append([]int32(nil), levels...),
		caps:        append([]int32(nil), caps...),
		capsMutable: true,
		twoChannel:  twoChannel,
	}
	s.setGraph(g)
	return s
}

// SetExcluded installs the mask of non-cooperating vertices (length n,
// true = excluded from the legality machinery), typically captured from
// beep.Network.FillAdversaryMask. The mask is copied; nil clears it.
// Callers that track a live network should re-capture whenever
// Network.AdversaryEpoch changes — Rewire both renumbers the adversary
// set and resizes the vertex space.
func (s *State) SetExcluded(mask []bool) {
	if mask == nil {
		if s.excluded != nil {
			s.excluded = nil
			s.exGen++
		}
		return
	}
	s.excluded = append(s.excluded[:0], mask...)
	s.exGen++
}

// Excluded reports whether v is masked out of the legality machinery.
func (s *State) Excluded(v int) bool {
	return s.excluded != nil && v < len(s.excluded) && s.excluded[v]
}

// Level returns ℓ(v) in this snapshot.
func (s *State) Level(v int) int { return int(s.levels[v]) }

// Cap returns ℓmax(v).
func (s *State) Cap(v int) int { return int(s.caps[v]) }

// InMIS reports whether v is in the stabilized-MIS set I_t of the
// snapshot: ℓ(v) at the algorithm's membership value (-ℓmax(v) for
// Algorithm 1, 0 for Algorithm 2) and every neighbor u at ℓmax(u)
// (equivalently μ_t(v) = 1). Under Algorithm 2 an all-cap neighborhood
// in particular contains no ℓ = 0 neighbor, so the membership arms
// share one all-neighbors-at-cap scan.
//
// Excluded vertices are never members, and are invisible to their
// neighbors' scans: a correct vertex's membership depends only on the
// levels of its correct neighbors.
func (s *State) InMIS(v int) bool {
	if s.Excluded(v) {
		return false
	}
	want := -s.caps[v]
	if s.twoChannel {
		want = 0
	}
	if s.levels[v] != want {
		return false
	}
	for _, u := range s.neighbors(v) {
		if s.Excluded(int(u)) {
			continue
		}
		if s.levels[u] != s.caps[u] {
			return false
		}
	}
	return true
}

// MISMask returns the membership mask of I_t. The returned slice is
// freshly allocated and safe to retain.
func (s *State) MISMask() []bool {
	s.sync()
	mask := make([]bool, len(s.levels))
	s.det.mis.FillBools(mask)
	return mask
}

// FillMISMask writes the membership mask of I_t into dst (length ≥ n),
// the allocation-free sibling of MISMask for per-round callers.
func (s *State) FillMISMask(dst []bool) {
	s.sync()
	s.det.mis.FillBools(dst)
}

// StableMask returns the mask of S_t = I_t ∪ N(I_t), the vertices whose
// output has stabilized. The returned slice is freshly allocated and
// safe to retain.
func (s *State) StableMask() []bool {
	s.sync()
	mask := make([]bool, len(s.levels))
	s.det.stable.FillBools(mask)
	return mask
}

// FillStableMask writes the mask of S_t into dst (length ≥ n), the
// allocation-free sibling of StableMask for per-round callers.
func (s *State) FillStableMask(dst []bool) {
	s.sync()
	s.det.stable.FillBools(dst)
}

// Stabilized reports whether every vertex is stable (S_t = V), the
// paper's stabilization condition. In that case MISMask is a maximal
// independent set. After the first call on a given State it is
// incremental: the cost is proportional to the levels Refresh
// re-captured (only the engine's changed words when it can name them,
// O(1) after an elided round) plus the degrees of the vertices that
// crossed the cap boundary or flipped I_t membership, not to n+m, and
// it performs no allocations in the steady state.
func (s *State) Stabilized() bool {
	s.sync()
	return s.det.unstable == 0
}

// StableCount returns |S_t|, useful for convergence progress curves.
func (s *State) StableCount() int {
	s.sync()
	return len(s.levels) - s.det.unstable
}

// sync brings the detector masks in line with the current levels: a
// full O(n+m) rebuild the first time (or when the snapshot switched
// graph, semantics, exclusion mask or immutable caps), an incremental
// update of the pending re-captured words afterward.
func (s *State) sync() {
	d := &s.det
	if d.stale || d.g != s.g || d.n != len(s.levels) || d.two != s.twoChannel || d.capsMut != s.capsMutable || d.exGen != s.exGen {
		s.rebuildDetector()
	} else {
		s.updateDetector()
	}
	s.pendAll = false
	if s.pendSet {
		clear(s.pendWords)
		s.pendSet = false
	}
}

// resizeZeroed returns buf resized to n entries, all zero.
func resizeZeroed(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// rebuildDetector recomputes the counters, I_t and S_t from scratch and
// records the level snapshot they correspond to. Each pass pushes along
// the rows of only the vertices it counts (correct vertices off their
// cap, then I_t members), so no row scan nests.
func (s *State) rebuildDetector() {
	d := &s.det
	n := len(s.levels)
	d.g, d.n, d.two, d.capsMut, d.exGen, d.stale = s.g, n, s.twoChannel, s.capsMutable, s.exGen, false
	d.notCap = resizeZeroed(d.notCap, n)
	d.misNbr = resizeZeroed(d.misNbr, n)
	d.mis.Resize(n)
	d.stable.Resize(n)
	for v := 0; v < n; v++ {
		if !s.Excluded(v) && s.levels[v] != s.caps[v] {
			for _, u := range s.neighbors(v) {
				d.notCap[u]++
			}
		}
	}
	for v := 0; v < n; v++ {
		if s.member(v) {
			d.mis.Set1(v)
			for _, u := range s.neighbors(v) {
				d.misNbr[u]++
			}
		}
	}
	for v := 0; v < n; v++ {
		// Excluded vertices are vacuously stable: the legality predicate
		// speaks only about the correct induced subgraph.
		if s.Excluded(v) || d.mis.Get(v) || d.misNbr[v] > 0 {
			d.stable.Set1(v)
		}
	}
	if d.stable.All() { // word-at-a-time scan against ^0
		d.unstable = 0
	} else {
		d.unstable = n - d.stable.OnesCount()
	}
	d.prevLevels = append(d.prevLevels[:0], s.levels...)
	if d.capsMut {
		d.prevCaps = append(d.prevCaps[:0], s.caps...)
	} else {
		d.prevCaps = nil
	}
}

// member evaluates I_t membership of v from the counters: correct, at
// the algorithm's membership level, and no correct neighbor off its
// cap. It agrees with InMIS whenever notCap is synchronized.
func (s *State) member(v int) bool {
	if s.Excluded(v) {
		return false
	}
	want := -s.caps[v]
	if s.twoChannel {
		want = 0
	}
	return s.levels[v] == want && s.det.notCap[v] == 0
}

// updateDetector is the incremental step: it diffs the pending
// re-captured levels (every vertex after a full Refresh, only the
// engine's changed words otherwise) against the snapshot the counters
// were derived from, and applies each difference through moved.
// Correctness rests on two locality facts: I_t membership of v reads
// only ℓ(v), ℓmax(v) and notCap[v], which a level change at u moves
// only when u crosses its cap boundary; and S_t membership of v reads
// only v's own I_t bit and misNbr[v], which moves only when a neighbor
// flips I_t membership. Applying the moves one by one leaves every
// counter exact, and every bit is re-evaluated after the last move
// touching its inputs, so the result equals the full recompute.
func (s *State) updateDetector() {
	if s.pendAll {
		s.diffRange(0, len(s.levels))
		return
	}
	if !s.pendSet {
		return
	}
	n := len(s.levels)
	for mi, m := range s.pendWords {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			lo := (mi<<6 + b) << 6
			hi := lo + 64
			if hi > n {
				hi = n
			}
			s.diffRange(lo, hi)
		}
	}
}

// diffRange applies every level (and mutable cap) change of the
// vertices [lo, hi) and advances the snapshot the counters describe.
func (s *State) diffRange(lo, hi int) {
	d := &s.det
	cur, prev := s.levels, d.prevLevels
	if d.capsMut {
		curC, prevC := s.caps, d.prevCaps
		for v := lo; v < hi; v++ {
			if cur[v] != prev[v] || curC[v] != prevC[v] {
				s.moved(v, prev[v], prevC[v])
				prev[v], prevC[v] = cur[v], curC[v]
			}
		}
		return
	}
	for v := lo; v < hi; v++ {
		if cur[v] != prev[v] {
			s.moved(v, prev[v], s.caps[v])
			prev[v] = cur[v]
		}
	}
}

// moved applies one vertex's change from (oldLevel, oldCap) to its
// current values: when a correct v crosses its cap boundary, the
// notCap counters of its neighbors move by one and a neighbor whose
// counter reaches or leaves zero is re-evaluated; v itself is always
// re-evaluated (its level, and under the adaptive heuristic its
// membership level, moved). Excluded vertices are invisible to their
// neighbors, so only their own (constant false) membership is touched.
func (s *State) moved(v int, oldLevel, oldCap int32) {
	d := &s.det
	if !s.Excluded(v) {
		if was, now := oldLevel == oldCap, s.levels[v] == s.caps[v]; was != now {
			delta := int32(-1)
			if was {
				delta = 1
			}
			for _, u := range s.neighborsNested(v) {
				before := d.notCap[u]
				d.notCap[u] = before + delta
				if (before == 0) != (before+delta == 0) {
					s.recheckMIS(int(u))
				}
			}
		}
	}
	s.recheckMIS(v)
}

// recheckMIS re-evaluates v's I_t bit; on a flip it moves the misNbr
// counters of v's neighbors and re-evaluates the S_t bits whose inputs
// changed (v's own, and every neighbor whose counter reached or left
// zero).
func (s *State) recheckMIS(v int) {
	d := &s.det
	in := s.member(v)
	if !d.mis.SetTo(v, in) {
		return
	}
	delta := int32(-1)
	if in {
		delta = 1
	}
	s.recheckStable(v)
	for _, u := range s.neighbors(v) {
		before := d.misNbr[u]
		d.misNbr[u] = before + delta
		if (before == 0) != (before+delta == 0) {
			s.recheckStable(int(u))
		}
	}
}

// recheckStable re-evaluates v's S_t bit, maintaining the unstable
// count.
func (s *State) recheckStable(v int) {
	d := &s.det
	now := s.Excluded(v) || d.mis.Get(v) || d.misNbr[v] > 0
	if d.stable.SetTo(v, now) {
		if now {
			d.unstable--
		} else {
			d.unstable++
		}
	}
}

// Mu returns μ_t(v) = min over u ∈ N(v) of ℓ(u)/ℓmax(u), in [-1, 1];
// for an isolated vertex it returns 1 (the vacuous minimum, consistent
// with the stabilization predicate).
func (s *State) Mu(v int) float64 {
	nb := s.neighbors(v)
	if len(nb) == 0 {
		return 1
	}
	min := 2.0
	for _, u := range nb {
		r := float64(s.levels[u]) / float64(s.caps[u])
		if r < min {
			min = r
		}
	}
	return min
}

// Prominent reports whether v is prominent (Definition 3.3): ℓ(v) <= 0.
// Under Algorithm 2 semantics the analogous notion is ℓ(v) = 0.
func (s *State) Prominent(v int) bool {
	if s.twoChannel {
		return s.levels[v] == 0
	}
	return s.levels[v] <= 0
}

// PlatinumFor reports whether the snapshot is a platinum round of v:
// some vertex of N⁺(v) is prominent.
func (s *State) PlatinumFor(v int) bool {
	if s.Prominent(v) {
		return true
	}
	for _, u := range s.neighbors(v) {
		if s.Prominent(int(u)) {
			return true
		}
	}
	return false
}

// BeepProbOf returns p_t(v), the beeping probability implied by the
// level of v (Figure 1). For Algorithm 2 it is the channel-1 probability
// (0 at both ℓ = 0 and ℓ = ℓmax).
func (s *State) BeepProbOf(v int) float64 {
	if s.twoChannel && s.levels[v] == 0 {
		return 0
	}
	return BeepProb(int(s.levels[v]), int(s.caps[v]))
}

// ExpectedBeepingNeighbors returns d_t(v) = Σ_{u ∈ N(v)} p_t(u), the
// quantity driving the golden-round analysis (Section 6.1).
func (s *State) ExpectedBeepingNeighbors(v int) float64 {
	d := 0.0
	for _, u := range s.neighbors(v) {
		d += s.BeepProbOf(int(u))
	}
	return d
}

// Eta returns η_t(v) = Σ_{u ∈ N(v) \ S_t} 2^-ℓmax(u), the residual mass
// of unstabilized neighbors (Section 3). stable must be a StableMask of
// the same snapshot; pass nil to compute it.
func (s *State) Eta(v int, stable []bool) float64 {
	if stable == nil {
		stable = s.StableMask()
	}
	sum := 0.0
	for _, u := range s.neighbors(v) {
		if !stable[u] {
			sum += math.Pow(2, -float64(s.caps[u]))
		}
	}
	return sum
}

// VerifyMIS checks that the snapshot's I_t is a maximal independent set
// of the graph — or, when an exclusion mask is installed, of the correct
// induced subgraph — returning a descriptive error otherwise. It is the
// safety check applied after every stabilized run.
func (s *State) VerifyMIS() error {
	if s.excluded == nil {
		return graph.VerifyMISOf(s.g, s.MISMask())
	}
	active := make([]bool, len(s.levels))
	for v := range active {
		active[v] = !s.Excluded(v)
	}
	return graph.VerifyMISOnOf(s.g, active, s.MISMask())
}
