package beep

import (
	"fmt"
	"math/bits"
	"runtime/debug"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/rng"
)

// This file implements the flat execution engine: rounds executed over
// structure-of-arrays machine slabs with zero per-vertex virtual
// dispatch. Protocols opt in by returning a bulk-state handle (see
// BatchProtocol) that implements FlatProtocol; the engine then replaces
// the per-machine Emit/Update interface calls with range kernel calls,
// and replaces the per-edge signal scatter with bitset-based delivery.
//
// The flat path is observationally identical to the reference loop:
// each vertex consumes exactly the draws its Machine.Emit would have
// consumed from its private stream, so traces are bit-for-bit equal
// (enforced by TestEngineTraceEquivalence and FuzzFlatEmitDrawEquivalence).
// Because of that, the Sequential engine transparently upgrades to the
// flat kernels whenever the protocol provides them; the explicit Flat
// and FlatParallel engines additionally *require* them (construction
// fails otherwise, making performance predictable).
//
// Stripes. There is one flat engine, with a stripe count: a round runs
// its phases over contiguous vertex stripes [lo, hi). Sequential and
// Flat use one stripe, FlatParallel one per pool worker (poolSize).
// With one stripe the phases run inline on the calling goroutine, and
// the stripe's scatter target and neighbor scratch are the network's
// own; with more, the same phase functions run on the sense-reversing
// worker pool of network.go, one stripe per worker. Stripes are padded
// to 64-vertex multiples, so a stripe owns exactly the 64-bit words
// [lo/64, ceil(hi/64)) of every per-vertex bitset: stripes write
// disjoint cache lines of the sent/heard signal arrays and disjoint
// words of the sender/heard bitsets, with no atomics on the hot path.
//
// Round structure (a barrier after each phase when pooled):
//
//	emit    — each stripe runs its range kernel on a private FlatEnv
//	pack    — each stripe packs sent[lo:hi) into its words of the
//	          per-channel sender bitsets, counting its senders (the
//	          sparse round repacks incrementally instead, see sparse.go)
//	scatter — each stripe ORs the CSR rows of the senders found in ITS
//	          words into its scratch heard masks (writes land anywhere,
//	          but only in stripe-private storage — or, with one stripe,
//	          in the heard bitsets themselves)
//	merge   — each stripe owns its words of the final heard bitsets: it
//	          ORs that word of every active stripe's scratch and
//	          composes the heard signals of its own vertices
//	gather  — instead of scatter + merge when many vertices send: the
//	          reference early-exit neighbor scan deliverRange(lo, hi)
//	update  — each stripe runs its range kernel
//
// Fault-free rounds run the activity-gated body of sparse.go; the dense
// body below runs only on fault-model rounds (sleep, adversaries,
// noise), whose skip masks and shared-stream draws the sparse path does
// not model. The pre-phases that consume shared streams run on the
// calling goroutine, exactly as in the reference loop.
//
// Determinism. Each vertex consumes randomness only from its own
// private stream, and each stripe touches only its own vertices'
// streams and sent entries, so the draws every vertex sees are
// independent of the stripe count and of scheduling (enforced by
// TestEngineTraceEquivalence, TestFlatParallelWorkerCountInvariance and
// the churn/chaos matrices).

// FlatEnv is the execution environment the flat engine passes to a
// FlatProtocol's kernels for one round phase. The slices alias network
// storage and must not be retained.
type FlatEnv struct {
	// Sent is the per-vertex signal array of the round. EmitRange must
	// fill Sent[v] for every vertex of its range whose Skip bit is clear
	// and leave skipped entries untouched (the engine pre-fills those).
	Sent []Signal
	// Heard is the OR of neighbor signals, valid during the update.
	Heard []Signal
	// Srcs are the private per-vertex random streams. Kernels must
	// consume them exactly as the corresponding Machine.Emit would, so
	// traces stay bit-identical.
	Srcs []*rng.Source
	// Skip marks the vertices the kernel must not touch this round
	// (sleeping or adversarial); nil when every vertex participates.
	Skip *bitset.Set

	// Drew must be set true by an emit kernel if it consumed any
	// randomness this round, and Changed by an update kernel if it
	// mutated any machine state (level, cap, or auxiliary counters). A
	// round that neither drew nor changed is a fixed point of the
	// dynamics; the distributed engine's stop detection reads the flags
	// (see Partition.EmitLocalSparse).
	Drew    bool
	Changed bool
}

// Skipped reports whether vertex v must be left untouched this round.
func (e *FlatEnv) Skipped(v int) bool {
	return e.Skip != nil && e.Skip.Get(v)
}

// FlatProtocol is the optional extension implemented by the bulk-state
// handles of protocols that support the flat engine (for the paper's
// protocols these are the contiguous int32 level/cap slabs introduced
// with BatchProtocol).
//
// The range forms are the unit of work: each stripe runs one contiguous
// slab range [lo, hi). EmitRange(env, lo, hi) must be observationally
// identical to calling Emit on every non-skipped machine of [lo, hi) in
// vertex order, touching only Sent[lo:hi] and the streams of vertices
// in [lo, hi), so disjoint stripes never write shared state (same for
// UpdateRange). Because each vertex consumes randomness only from its
// own private stream, stripes can execute in any order or concurrently
// without perturbing any vertex's draw sequence: that is the whole
// determinism argument of the striped engine.
//
// The sparse forms are the activity-gated kernels of sparse.go. act
// and upd are word-activity masks: bit wi of act[wi/64] gates slab word
// wi (vertices [wi*64, wi*64+64)). EmitSparse must behave exactly like
// EmitRange restricted to the vertices of marked words, additionally
// setting the word's bit in drewW iff any of its vertices consumed
// randomness; UpdateSparse likewise, setting changedW word bits iff
// state moved. Both run only on fault-free rounds (env.Skip is nil by
// contract), and neither sets output bits of unmarked words (the
// engine clears the masks).
//
// Each stripe passes its own FlatEnv and output masks, so the
// Drew/Changed flags and mask bits are per-stripe and race-free; the
// engine ORs them after the phase.
type FlatProtocol interface {
	// EmitRange decides the signal of every non-skipped vertex of
	// [lo, hi) for the round.
	EmitRange(env *FlatEnv, lo, hi int)
	// UpdateRange applies the state transition of every non-skipped
	// vertex of [lo, hi) given the round's Sent and Heard signals.
	UpdateRange(env *FlatEnv, lo, hi int)
	// EmitSparse is EmitRange over the words of [lo, hi) marked in act.
	EmitSparse(env *FlatEnv, act, drewW []uint64, lo, hi int)
	// UpdateSparse is UpdateRange over the words of [lo, hi) marked in
	// upd.
	UpdateSparse(env *FlatEnv, upd, changedW []uint64, lo, hi int)
}

// FlatReiniter is the optional extension implemented by bulk-state
// handles that can restore their machine cohort to the protocol's
// initial configuration for the current graph, enabling the
// allocation-free Network.Reseed used by replication pools
// (exp.RunReplicated).
type FlatReiniter interface {
	// ReinitAll re-initializes every machine exactly as NewMachines
	// would have built it for g.
	ReinitAll(g graph.Topology)
}

// WithFlatKernels enables or disables the flat kernels on the
// Sequential engine (default: enabled when the protocol provides them).
// Disabling forces the reference per-machine loop; the engine
// trace-equivalence tests use this to pin the flat kernels against the
// reference semantics. With the kernels enabled, Sequential runs the
// same one-stripe flat round as Flat. The Flat and FlatParallel engines
// reject it.
func WithFlatKernels(enabled bool) Option {
	return func(n *Network) { n.noFlat = !enabled }
}

// Dedicated-stream salts (see NewNetwork): each auxiliary randomness
// consumer derives its stream from the root seed XOR an ASCII salt so
// executions stay reproducible and engine-independent.
const (
	noiseSalt = 0x6e6f697365 // "noise"
	sleepSalt = 0x736c656570 // "sleep"
	advSalt   = 0x61647673   // "advs"
)

// finishFlatSetup resolves the flat configuration after all options
// have been applied: binds the flat kernels (unless disabled) and
// enforces the flat engines' requirement for them.
func (n *Network) finishFlatSetup(proto Protocol) error {
	n.bindFlatOps()
	if n.engine == Flat || n.engine == FlatParallel {
		if n.noFlat {
			return fmt.Errorf("beep: WithFlatKernels(false) conflicts with the %v engine", n.engine)
		}
		if n.flatOps == nil {
			return fmt.Errorf("beep: %v engine requires flat kernels, but %T's bulk state (%T) does not implement FlatProtocol", n.engine, proto, n.bulk)
		}
	}
	return nil
}

// bindFlatOps (re)derives the flat kernel binding from the current
// bulk-state handle; called at construction and after Rewire (which
// rebuilds the slab, or drops it for non-codec machine cohorts).
func (n *Network) bindFlatOps() {
	n.flatOps = nil
	// Whatever triggered the rebind (construction, Rewire) changed the
	// cohort or topology: the sparse path must restart from an
	// all-active frontier and rebuild its delivery invariants densely,
	// and any incremental-checkpoint baseline is void.
	n.markAll()
	n.ckDirty.adv = true
	if n.noFlat {
		return
	}
	if fp, ok := n.bulk.(FlatProtocol); ok {
		n.flatOps = fp
	}
}

// stripe is one vertex range [lo, hi) of the flat round, with the state
// its phases write. The trailing pad keeps the per-round mutable fields
// of adjacent stripes on different cache lines.
type stripe struct {
	lo, hi int
	// env is the stripe's kernel environment; Drew/Changed are
	// per-stripe.
	env FlatEnv
	// scratch is the scatter target: the network's heard bitsets when
	// there is one stripe, private full-length masks otherwise. Valid
	// only when active.
	scratch *[2]bitset.Set
	// row is the neighbor scratch for synthesizing backends (the
	// network's rowBuf when there is one stripe); nil on the
	// materialized fast path.
	row []int32
	// senders is the pack phase's sender count (all channels).
	senders int
	// drewW / changedW are the sparse kernels' output masks (full mask
	// length, sized lazily). Each stripe clears its own at phase start
	// and the round ORs them after the phase.
	drewW, changedW []uint64
	// active reports that the stripe reset and scattered into scratch
	// this round; merge skips inactive stripes.
	active bool
	_      [64]byte
}

// Phases of the striped round, run per stripe by stripePhase.
const (
	phaseExit = iota // pool shutdown
	phaseEmit
	phaseSparseEmit
	phasePack
	phaseScatter
	phaseMerge
	phaseGather
	phaseUpdate
	phaseSparseUpdate
)

// buildStripes lays out the stripes for the current vertex count —
// poolSize() of them for FlatParallel, one otherwise — and (re)starts
// the worker pool when there is more than one. Called at construction
// and after Rewire: stripe boundaries are a function of N, so no stripe
// state survives a topology change.
func (n *Network) buildStripes() {
	if n.workers != nil {
		n.workers.close()
		n.workers = nil
	}
	k := 1
	if n.engine == FlatParallel {
		k = n.poolSize()
	}
	N := n.N()
	per := ((N+k-1)/k + 63) &^ 63
	n.stripes = make([]stripe, 0, k)
	for lo := 0; ; lo += per {
		hi := min(lo+per, N)
		n.stripes = append(n.stripes, stripe{lo: lo, hi: hi})
		if hi == N {
			break
		}
	}
	if len(n.stripes) == 1 {
		n.stripes[0].scratch, n.stripes[0].row = &n.heardBits, n.rowBuf
		return
	}
	for i := range n.stripes {
		st := &n.stripes[i]
		st.scratch = new([2]bitset.Set)
		if n.csr == nil {
			st.row = make([]int32, n.g.MaxDegree())
		}
	}
	n.workers = newWorkerPool(n)
}

// prepareStripes starts a round on every stripe: a fresh kernel
// environment and no scatter state, plus output masks of mw words for a
// sparse round (mw = 0 for a dense one).
func (n *Network) prepareStripes(skip *bitset.Set, mw int) {
	for i := range n.stripes {
		st := &n.stripes[i]
		st.env = FlatEnv{Sent: n.sent, Heard: n.heard, Srcs: n.srcs, Skip: skip}
		st.active = false
		if mw > 0 && len(st.drewW) != mw {
			st.drewW, st.changedW = make([]uint64, mw), make([]uint64, mw)
		}
	}
}

// runStripes runs one phase on every stripe — inline when there is one,
// on the worker pool otherwise — and returns the first contained kernel
// panic.
func (n *Network) runStripes(phase int) *RunError {
	if p := n.workers; p != nil {
		p.runPhase(phase)
		return p.takeError()
	}
	return n.stripePhase(phase, &n.stripes[0])
}

// stripePhase runs one phase of the round on one stripe.
func (n *Network) stripePhase(phase int, st *stripe) *RunError {
	switch phase {
	case phaseEmit:
		return n.rangeKernel("emit", &st.env, nil, nil, st.lo, st.hi)
	case phaseSparseEmit:
		clearMask(st.drewW)
		return n.rangeKernel("emit", &st.env, n.sparse.act, st.drewW, st.lo, st.hi)
	case phasePack:
		st.senders = 0
		for c := 0; c < n.channels; c++ {
			st.senders += n.packSendersRange(c, st.lo, st.hi)
		}
	case phaseScatter:
		n.scatterStripe(st)
	case phaseMerge:
		n.mergeStripe(st)
	case phaseGather:
		n.deliverRange(st.lo, st.hi, st.row)
	case phaseUpdate:
		return n.rangeKernel("update", &st.env, nil, nil, st.lo, st.hi)
	case phaseSparseUpdate:
		clearMask(st.changedW)
		return n.rangeKernel("update", &st.env, n.sparse.updW, st.changedW, st.lo, st.hi)
	}
	return nil
}

// rangeKernel runs one flat kernel (phase "emit" or "update") over the
// vertex range [lo, hi): the range form when gate is nil, otherwise the
// activity-gated form over the words marked in gate, writing out. It is
// the one kernel entry point of the striped round and of Partition, and
// it contains machine panics like emitRange/updateRange: the recovery
// happens in this frame, so a pool worker still joins its barrier. A
// kernel processes its range as a whole, so the error cannot name the
// vertex (Vertex is -1).
func (n *Network) rangeKernel(phase string, env *FlatEnv, gate, out []uint64, lo, hi int) (rerr *RunError) {
	defer func() {
		if r := recover(); r != nil {
			rerr = &RunError{
				Vertex: -1, Round: n.round + 1, Phase: phase,
				Engine: n.engine, Recovered: r, Stack: debug.Stack(),
			}
		}
	}()
	switch {
	case gate == nil && phase == "emit":
		n.flatOps.EmitRange(env, lo, hi)
	case gate == nil:
		n.flatOps.UpdateRange(env, lo, hi)
	case phase == "emit":
		n.flatOps.EmitSparse(env, gate, out, lo, hi)
	default:
		n.flatOps.UpdateSparse(env, gate, out, lo, hi)
	}
	return nil
}

// stepStripedDense executes one dense round through the flat kernels —
// the fault-model round: the sleep/adversary draws and the skip mask
// exactly as the reference loop runs them, striped emit, pack and
// delivery, the sequential noise pass, and striped update.
func (n *Network) stepStripedDense() *RunError {
	n.drawSleep()
	n.drawAdversaries()
	n.prepareStripes(n.buildFlatSkip(), 0)
	if err := n.runStripes(phaseEmit); err != nil {
		return err
	}
	n.sizeDeliveryBits()
	n.runStripes(phasePack)
	senders := 0
	for i := range n.stripes {
		senders += n.stripes[i].senders
	}
	n.deliverStriped(senders)
	n.applyNoise()
	return n.runStripes(phaseUpdate)
}

// buildFlatSkip assembles the per-round skip mask (sleeping and
// adversarial vertices) and pre-fills their sent signals with exactly
// the values emitRange would have produced: adversaries transmit their
// policy signal regardless of sleep (adversary-before-sleep semantics),
// sleepers transmit nothing. Returns nil when every vertex
// participates, the common case, so the kernels' fast loops carry no
// per-vertex mask test.
func (n *Network) buildFlatSkip() *bitset.Set {
	sleeping := n.sleep.enabled() && n.asleep != nil
	if n.advCount == 0 && !sleeping {
		return nil
	}
	N := n.N()
	skip := &n.flatSkip
	if skip.Len() != N {
		skip.Resize(N)
	} else {
		skip.Reset()
	}
	if n.advCount > 0 {
		for v, p := range n.adv {
			if p != 0 {
				skip.Set1(v)
				n.sent[v] = n.advSent[v]
			}
		}
	}
	if sleeping {
		for v, z := range n.asleep {
			if z && !(n.adv != nil && n.adv[v] != 0) {
				skip.Set1(v)
				n.sent[v] = Silent
			}
		}
	}
	return skip
}

// zeroSignals is a reusable all-silent block for word-granular clears
// of the heard array.
var zeroSignals [64]Signal

// GatherCrossoverFactor is the sparse/dense crossover of the flat
// delivery kernel: the scatter path (OR each sender's CSR row into a
// heard bitset) is taken while its estimated cost, senders × (avgDeg +
// 1), stays at or below GatherCrossoverFactor × N; beyond that the
// per-vertex gather scan wins, because it costs at most O(N · channels)
// probes with early exit once every channel has been heard, while the
// scatter cost keeps growing with the number of senders.
//
// The default of 2 ("scatter until it would touch more than ~2 words
// per vertex") was chosen by measurement: BenchmarkDeliverCrossover
// sweeps the sender fraction on an avg-degree-8 G(n,p) graph and the
// scatter/gather cost curves cross within a factor of ~1.5 of this
// setting, with both paths within noise of each other at the boundary
// itself — so the exact constant is uncritical, which is what a
// hard-coded crossover needs to be. Both paths produce the exact same
// heard masks (pinned by TestDeliverCrossoverBoundary), so the choice
// is invisible to traces.
const GatherCrossoverFactor = 2

// deliveryWantsGather applies the crossover cost model to the round's
// sender count (all channels, all stripes).
func deliveryWantsGather(senders, avgDeg, N int) bool {
	return senders*(avgDeg+1) > GatherCrossoverFactor*N
}

// avgDegree returns the integer average degree ⌊2M/N⌋ used by the
// delivery cost model.
func (n *Network) avgDegree() int {
	N := n.N()
	if N == 0 {
		return 0
	}
	return 2 * n.g.M() / N
}

// deliverStriped computes heard[v] for every vertex with word-level
// bitset operations from the packed sender bitsets: the neighborhood OR
// is produced either by *scattering* each sender's CSR row into the
// heard bitsets (cost Σ_{senders} deg, the win whenever few vertices
// beep — the steady state of a stabilized MIS) or, when the estimated
// scatter cost exceeds the early-exit gather bound (see
// GatherCrossoverFactor), by the reference per-vertex scan. Both
// produce the exact OR, so the choice is invisible to traces. The
// caller has sized the bitsets (sizeDeliveryBits).
func (n *Network) deliverStriped(senders int) {
	if deliveryWantsGather(senders, n.avgDegree(), n.N()) {
		n.runStripes(phaseGather)
		return
	}
	n.runStripes(phaseScatter)
	n.runStripes(phaseMerge)
}

// sizeDeliveryBits makes the per-channel sender and heard bitsets match
// the current vertex count, before a phase fans out over the stripes.
func (n *Network) sizeDeliveryBits() {
	for c := 0; c < n.channels; c++ {
		if sb := &n.sendBits[c]; sb.Len() != n.N() {
			sb.Resize(n.N())
		}
		if hb := &n.heardBits[c]; hb.Len() != n.N() {
			hb.Resize(n.N())
		}
	}
}

// packSendersRange builds the channel-c sender bits for the vertex
// range [lo, hi) and returns the number of senders in the range. lo
// must be 64-aligned and hi either 64-aligned or N, so distinct ranges
// own disjoint words of the bitset — the property that lets stripes
// pack concurrently with no atomics.
func (n *Network) packSendersRange(c, lo, hi int) int {
	mask := Signal(1) << uint(c)
	words := n.sendBits[c].Words()
	sent := n.sent
	count := 0
	var w uint64
	wi := lo >> 6
	for v := lo; v < hi; v++ {
		if sent[v]&mask != 0 {
			w |= 1 << uint(v&63)
		}
		if v&63 == 63 {
			words[wi] = w
			count += bits.OnesCount64(w)
			w = 0
			wi++
		}
	}
	if hi&63 != 0 {
		words[wi] = w
		count += bits.OnesCount64(w)
	}
	return count
}

// scatterStripe ORs the CSR rows of the senders found in the stripe's
// words into its scratch heard masks. A stripe without senders leaves
// its scratch untouched (and unallocated on the first rounds) and stays
// inactive, so the merge skips it.
func (n *Network) scatterStripe(st *stripe) {
	wlo, whi := st.lo>>6, (st.hi+63)>>6
	var occupied uint64
	for c := 0; c < n.channels; c++ {
		for _, w := range n.sendBits[c].Words()[wlo:whi] {
			occupied |= w
		}
	}
	if occupied == 0 {
		return
	}
	N := n.N()
	for c := 0; c < n.channels; c++ {
		sc := &st.scratch[c]
		if sc.Len() != N {
			sc.Resize(N)
		} else {
			sc.Reset()
		}
		n.scatterWordsInto(c, sc.Words(), wlo, whi, st.row)
	}
	st.active = true
}

// scatterWordsInto ORs the neighbor rows of the channel-c senders found
// in sender-bitset words [wlo, whi) into hw, a full-length heard word
// array. The *reads* are word-range-partitioned; the *writes* land
// anywhere in hw (a sender's neighbors are arbitrary), which is why
// stripes scatter into private masks when there are several. buf is
// the neighbor scratch for synthesizing backends, ignored on the
// materialized fast path.
func (n *Network) scatterWordsInto(c int, hw []uint64, wlo, whi int, buf []int32) {
	sw := n.sendBits[c].Words()
	g := n.csr
	for wi := wlo; wi < whi; wi++ {
		w := sw[wi]
		base := wi * 64
		for w != 0 {
			u := base + bits.TrailingZeros64(w)
			w &= w - 1
			var row []int32
			if g != nil {
				row = g.Neighbors(u)
			} else {
				row = n.g.NeighborsInto(u, buf)
			}
			for _, x := range row {
				hw[x>>6] |= 1 << (uint(x) & 63)
			}
		}
	}
}

// mergeStripe finalizes the words of the heard bitsets the stripe owns
// — each the OR of that word of every active stripe's scratch — and
// composes the heard signals of its vertices. Every heard word is
// written by exactly one stripe, so the merge needs no atomics; reads
// of other stripes' scratch are ordered by the scatter barrier. With
// one stripe the scratch is the heard bitset itself, and the merge only
// zeroes it when the stripe had no senders.
func (n *Network) mergeStripe(st *stripe) {
	wlo, whi := st.lo>>6, (st.hi+63)>>6
	for c := 0; c < n.channels; c++ {
		out := n.heardBits[c].Words()
		for wi := wlo; wi < whi; wi++ {
			var acc uint64
			for j := range n.stripes {
				if o := &n.stripes[j]; o.active {
					acc |= o.scratch[c].Words()[wi]
				}
			}
			out[wi] = acc
		}
	}
	n.composeHeardRange(st.lo, st.hi)
}

// composeHeardRange expands vertices [lo, hi) of the per-channel heard
// bitsets into the heard signal array, clearing 64 vertices at a time
// in the silent common case. lo must be 64-aligned (hi either
// 64-aligned or N) so stripes touch disjoint words.
func (n *Network) composeHeardRange(lo, hi int) {
	h1 := n.heardBits[0].Words()
	var h2 []uint64
	if n.channels == 2 {
		h2 = n.heardBits[1].Words()
	}
	heard := n.heard
	for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
		base := wi * 64
		end := base + 64
		if end > hi {
			end = hi
		}
		w1 := h1[wi]
		var w2 uint64
		if h2 != nil {
			w2 = h2[wi]
		}
		if w1|w2 == 0 {
			copy(heard[base:end], zeroSignals[:end-base])
			continue
		}
		for v := base; v < end; v++ {
			sh := uint(v & 63)
			heard[v] = Signal((w1>>sh)&1) | Signal((w2>>sh)&1)<<1
		}
	}
}

// Reseed resets the network to the exact state NewNetwork(g, proto,
// seed, opts...) would have produced, without reallocating any slab:
// machine states are re-initialized in place (via the bulk handle's
// FlatReiniter), every random stream is re-derived from the new seed,
// and the round counter, failure poison and child-stream allocator are
// cleared. Installed adversary policies and the noise/sleep parameters
// are construction-time configuration and are kept. Stripe state is
// per-round (prepareStripes resets it), so nothing of the previous
// execution reaches round 1.
//
// Reseed is the amortization primitive of replication sweeps
// (exp.RunReplicated): one network per worker, re-seeded per trial,
// replaces per-trial graph/CSR re-validation and slab allocation.
// Executions after a Reseed are bit-identical to freshly constructed
// ones (property-tested by TestReseedMatchesFreshNetwork).
func (n *Network) Reseed(seed uint64) error {
	if n.closed {
		return fmt.Errorf("beep: Reseed on closed Network")
	}
	ri, ok := n.bulk.(FlatReiniter)
	if !ok {
		return fmt.Errorf("beep: Reseed requires a protocol whose bulk state supports re-initialization; %T's bulk state (%T) does not implement FlatReiniter", n.proto, n.bulk)
	}
	ri.ReinitAll(n.g)
	n.seed = seed
	n.root.Reseed(seed)
	for v := range n.srcs {
		n.root.SplitInto(uint64(v), n.srcs[v])
	}
	n.nextStream = uint64(n.N())
	n.noiseSrc.Reseed(seed ^ noiseSalt)
	n.sleepSrc.Reseed(seed ^ sleepSalt)
	n.advSrc.Reseed(seed ^ advSalt)
	for v := range n.sent {
		n.sent[v] = Silent
		n.heard[v] = Silent
	}
	n.round = 0
	n.failed = nil
	// The sender bitsets still hold the previous execution's bits while
	// sent was just cleared: force the sparse path to restart all-active
	// and rebuild its delivery invariants densely. Every vertex state
	// and stream was rewritten, so the dirty baseline is void too.
	n.markAll()
	n.ckDirty.adv = true
	n.advEpoch++ // new execution: legality observers must re-key
	return nil
}
