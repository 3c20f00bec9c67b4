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
// the per-machine Emit/Update interface calls with two whole-cohort
// kernel calls, and replaces the per-edge signal scatter with a
// bitset-based delivery kernel (deliverFlat below).
//
// The flat path is observationally identical to the reference loop:
// each vertex consumes exactly the draws its Machine.Emit would have
// consumed from its private stream, so traces are bit-for-bit equal
// (enforced by TestEngineTraceEquivalence and FuzzFlatEmitDrawEquivalence).
// Because of that, the Sequential engine transparently upgrades to the
// flat kernels whenever the protocol provides them; the explicit Flat
// engine additionally *requires* them (construction fails otherwise,
// making performance predictable).
//
// Fault-free rounds run the activity-gated kernels of sparse.go; the
// dense whole-cohort step below runs only on fault-model rounds (sleep,
// adversaries, noise), whose skip masks and shared-stream draws the
// sparse path does not model.

// FlatEnv is the execution environment the flat engine passes to a
// FlatProtocol's kernels for one round phase. The slices alias network
// storage and must not be retained.
type FlatEnv struct {
	// Sent is the per-vertex signal array of the round. EmitAll must
	// fill Sent[v] for every vertex whose Skip bit is clear and leave
	// skipped entries untouched (the engine pre-fills those).
	Sent []Signal
	// Heard is the OR of neighbor signals, valid during UpdateAll.
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
// handles of protocols that support the flat engines (for the paper's
// protocols these are the contiguous int32 level/cap slabs introduced
// with BatchProtocol). EmitAll and UpdateAll must be observationally
// identical to calling Emit/Update on every non-skipped machine in
// vertex order.
//
// The range forms are the unit of work of the FlatParallel engine: each
// worker runs one contiguous slab stripe [lo, hi). EmitRange(env, lo,
// hi) must behave exactly like the [lo, hi) sub-loop of EmitAll —
// touching only Sent[lo:hi] and the streams of vertices in [lo, hi), so
// disjoint stripes never write shared state — and EmitAll(env) must be
// equivalent to EmitRange(env, 0, len(Sent)) (same for UpdateAll /
// UpdateRange). Because each vertex consumes randomness only from its
// own private stream, stripes can execute in any order or concurrently
// without perturbing any vertex's draw sequence: that is the whole
// determinism argument of the parallel flat engine.
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
// Each worker passes its own FlatEnv and output masks, so the
// Drew/Changed flags and mask bits are per-stripe and race-free; the
// engine ORs them after the barrier.
type FlatProtocol interface {
	// EmitAll decides every non-skipped vertex's signal for the round.
	EmitAll(env *FlatEnv)
	// UpdateAll applies every non-skipped vertex's state transition
	// given the round's Sent and Heard signals.
	UpdateAll(env *FlatEnv)
	// EmitRange is the [lo, hi) stripe of EmitAll.
	EmitRange(env *FlatEnv, lo, hi int)
	// UpdateRange is the [lo, hi) stripe of UpdateAll.
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

// WithFlatKernels enables or disables the flat fast path on the
// Sequential engine (default: enabled when the protocol provides it).
// Disabling forces the reference per-machine loop; the engine
// trace-equivalence tests use this to pin the flat kernels against the
// reference semantics. The Flat and FlatParallel engines reject it.
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
	n.sparse.markAll()
	n.ckDirty.markAll()
	n.ckDirty.adv = true
	n.probe.markAll()
	if n.noFlat {
		return
	}
	if fp, ok := n.bulk.(FlatProtocol); ok {
		n.flatOps = fp
	}
}

// stepFlat executes one dense synchronous round through the flat
// kernels — the fault-model round of the single-goroutine flat path:
// sequential pre-phases (sleep/adversary draws) exactly as the
// reference loop runs them, whole-cohort emit, bitset delivery, the
// sequential noise pass, and whole-cohort update. Machine panics inside
// a kernel are contained into a *RunError like the reference loop's;
// the flat kernels process the cohort as a whole, so the error cannot
// name the vertex (Vertex is -1).
func (n *Network) stepFlat() *RunError {
	n.drawSleep()
	n.drawAdversaries()
	env := &n.flatEnv
	env.Sent, env.Heard, env.Srcs = n.sent, n.heard, n.srcs
	env.Skip = n.buildFlatSkip()
	env.Drew, env.Changed = false, false
	if err := n.runFlatKernel("emit", env); err != nil {
		return err
	}
	n.deliverFlat()
	n.applyNoise()
	return n.runFlatKernel("update", env)
}

// runFlatKernel invokes one cohort kernel (phase "emit" or "update")
// with the same panic containment contract as emitRange/updateRange.
func (n *Network) runFlatKernel(phase string, env *FlatEnv) (rerr *RunError) {
	defer func() {
		if r := recover(); r != nil {
			rerr = &RunError{
				Vertex: -1, Round: n.round + 1, Phase: phase,
				Engine: n.engine, Recovered: r, Stack: debug.Stack(),
			}
		}
	}()
	if phase == "emit" {
		n.flatOps.EmitAll(env)
	} else {
		n.flatOps.UpdateAll(env)
	}
	return nil
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

// deliveryWantsGather applies the crossover cost model shared by the
// sequential flat engine and the parallel one (where senders is the sum
// of the per-worker pack counts).
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

// deliverFlat computes heard[v] for every vertex with word-level bitset
// operations: per channel, the senders are packed into a bitset, and
// the neighborhood OR is produced either by *scattering* each sender's
// CSR row into a heard bitset (cost Σ_{senders} deg, the win whenever
// few vertices beep — the steady state of a stabilized MIS) or, when
// the estimated scatter cost exceeds the early-exit gather bound (see
// GatherCrossoverFactor), by the reference per-vertex scan. Both
// produce the exact OR, so the choice is invisible to traces.
func (n *Network) deliverFlat() {
	N := n.N()
	if N == 0 {
		return
	}
	senders := 0
	for c := 0; c < n.channels; c++ {
		n.sizeSendBits(c)
		senders += n.packSendersRange(c, 0, N)
	}
	if deliveryWantsGather(senders, n.avgDegree(), N) {
		n.deliverRange(0, N, n.rowBuf)
		return
	}
	for c := 0; c < n.channels; c++ {
		n.scatterChannel(c)
	}
	n.composeHeard()
}

// sizeSendBits makes the channel-c sender bitset match the current
// vertex count. Sizing is separated from packing so the parallel engine
// can resize once, sequentially, before the pack phase fans out.
func (n *Network) sizeSendBits(c int) {
	if sb := &n.sendBits[c]; sb.Len() != n.N() {
		sb.Resize(n.N())
	}
}

// packSendersRange builds the channel-c sender bits for the vertex
// range [lo, hi) and returns the number of senders in the range. lo
// must be 64-aligned and hi either 64-aligned or N, so distinct ranges
// own disjoint words of the bitset — the property that lets the
// parallel engine pack stripes concurrently with no atomics.
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

// scatterChannel ORs each channel-c sender's CSR neighborhood into the
// channel's heard bitset.
func (n *Network) scatterChannel(c int) {
	N := n.N()
	hb := &n.heardBits[c]
	if hb.Len() != N {
		hb.Resize(N)
	} else {
		hb.Reset()
	}
	n.scatterWordsInto(c, hb.Words(), 0, len(n.sendBits[c].Words()), n.rowBuf)
}

// scatterWordsInto ORs the neighbor rows of the channel-c senders found
// in sender-bitset words [wlo, whi) into hw, a full-length heard word
// array. The *reads* are word-range-partitioned; the *writes* land
// anywhere in hw (a sender's neighbors are arbitrary), which is why the
// parallel engine hands each worker a private hw and merges afterwards.
// buf is the neighbor scratch for synthesizing backends, ignored on the
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

// composeHeard expands the per-channel heard bitsets into the heard
// signal array.
func (n *Network) composeHeard() {
	n.composeHeardRange(0, n.N())
}

// composeHeardRange expands vertices [lo, hi) of the per-channel heard
// bitsets into the heard signal array, clearing 64 vertices at a time
// in the silent common case. lo must be 64-aligned (hi either
// 64-aligned or N) so parallel stripes touch disjoint words.
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
// are construction-time configuration and are kept.
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
	n.sparse.markAll()
	n.ckDirty.markAll()
	n.ckDirty.adv = true
	n.probe.markAll()
	n.advEpoch++ // new execution: legality observers must re-key
	if n.workers != nil {
		// Flat-parallel stripe state is per-round (reset by every
		// stepFlatParallel), but a reseed starts a NEW execution on the
		// same pool: clear the pack counters, activity flags and
		// environments eagerly so nothing from the previous trial can
		// leak into round 1 — the property the replication pools
		// (exp.RunReplicated) and the post-Rewire regression test
		// (TestFlatParallelRewireReseedBitExact) rely on.
		for i := range n.workers.flat {
			w := &n.workers.flat[i]
			w.env = FlatEnv{}
			w.senders = 0
			w.active = false
		}
	}
	return nil
}
