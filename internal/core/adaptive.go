package core

import (
	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/rng"
)

// AdaptiveAlg1 is an experimental heuristic for the paper's open
// question (Section 8): can the topology knowledge be removed entirely?
// Vertices start with a small level cap and grow it by doubling when
// they observe evidence that their cap is too small, instead of being
// told ℓmax(v).
//
// The evidence signal is a *collision*: the vertex beeped and heard a
// beep in the same round. When ℓmax(v) is below ~log₂(deg(v)), the
// beeping-probability floor 2^-ℓmax keeps the expected number of
// beeping neighbors above a constant, so collisions recur persistently;
// above the threshold they become rare. After collisionThreshold
// collisions a vertex doubles its cap (clamping its level), up to
// MaxCap.
//
// Two properties make the heuristic compatible with self-stabilization:
//
//   - Legal configurations see no collisions (MIS members beep alone;
//     everyone else is silent), so caps freeze and closure is preserved.
//   - Caps only grow, so once every vertex's cap clears the
//     log₂(deg)+4 threshold of the lemmas, the standard analysis
//     applies to the remaining execution.
//
// This is NOT one of the paper's algorithms and carries no w.h.p.
// guarantee: it is the repository's empirical contribution to the open
// problem, evaluated in experiment E10. Its stabilization detection
// must use the same Leveled interface, which it implements.
type AdaptiveAlg1 struct {
	// InitialCap is the starting ℓmax (default 4, the smallest value
	// satisfying the lemma precondition for isolated vertices).
	InitialCap int
	// MaxCap bounds the doubling (default 64, enough for any graph a
	// simulator can hold).
	MaxCap int
	// CollisionThreshold is the number of collisions that triggers a
	// doubling (default 8).
	CollisionThreshold int
}

var (
	_ beep.Protocol      = AdaptiveAlg1{}
	_ beep.BatchProtocol = AdaptiveAlg1{}
)

// NewAdaptiveAlg1 returns the heuristic with default parameters.
func NewAdaptiveAlg1() AdaptiveAlg1 {
	return AdaptiveAlg1{InitialCap: 4, MaxCap: 64, CollisionThreshold: 8}
}

// Channels reports the single beeping channel.
func (AdaptiveAlg1) Channels() int { return 1 }

// NewMachine builds a machine with no topology knowledge at all.
func (p AdaptiveAlg1) NewMachine(int, graph.Topology) beep.Machine {
	m := &adaptiveMachine{}
	p.initMachine(m)
	return m
}

// initMachine applies the defaulted parameters, shared by the
// per-vertex and batch construction paths.
func (p AdaptiveAlg1) initMachine(m *adaptiveMachine) {
	initial := p.InitialCap
	if initial < 1 {
		initial = 4
	}
	maxCap := p.MaxCap
	if maxCap < initial {
		maxCap = initial
	}
	threshold := p.CollisionThreshold
	if threshold < 1 {
		threshold = 8
	}
	*m = adaptiveMachine{
		alg1Machine: alg1Machine{level: int32(initial), lmax: int32(initial)},
		maxCap:      maxCap,
		threshold:   threshold,
	}
}

// NewMachines builds the whole cohort at once (beep.BatchProtocol) with
// a contiguous slab exposing the bulk level accessor, so experiment E10
// rides the same fast detector path as the paper's algorithms. Note the
// adaptive caps are mutable state, which is why ExportLevels re-reads
// both ℓ and ℓmax every call.
func (p AdaptiveAlg1) NewMachines(g graph.Topology) ([]beep.Machine, any) {
	n := g.N()
	slab := &adaptiveSlab{p: p, ms: make([]adaptiveMachine, n)}
	ms := make([]beep.Machine, n)
	for v := 0; v < n; v++ {
		m := &slab.ms[v]
		p.initMachine(m)
		ms[v] = m
	}
	return ms, slab
}

// adaptiveSlab is the contiguous machine storage of one adaptive
// network and its bulk level accessor. It keeps the protocol it was
// built by so the cohort can be re-initialized in place
// (beep.FlatReiniter).
type adaptiveSlab struct {
	p  AdaptiveAlg1
	ms []adaptiveMachine
}

var _ LevelExporter = (*adaptiveSlab)(nil)

// ExportLevels copies every machine's (ℓ, ℓmax) into the destination
// slices in one pass over the contiguous slab.
// caps is never nil here: MutableCaps is true, so callers must always
// re-export the caps.
func (s *adaptiveSlab) ExportLevels(levels, caps []int32) {
	s.ExportLevelRange(levels, caps, 0, len(s.ms))
}

// ExportLevelRange is ExportLevels over the vertices [lo, hi).
func (s *adaptiveSlab) ExportLevelRange(levels, caps []int32, lo, hi int) {
	ms, lv, cp := s.ms[lo:hi], levels[lo:hi], caps[lo:hi]
	for i := range ms {
		lv[i] = ms[i].level
		cp[i] = ms[i].lmax
	}
}

// MutableCaps reports that the adaptive heuristic grows ℓmax during the
// execution, so caps must be re-exported and re-diffed every round.
func (s *adaptiveSlab) MutableCaps() bool { return true }

// TwoChannel reports single-channel (Algorithm 1) semantics.
func (s *adaptiveSlab) TwoChannel() bool { return false }

// adaptiveMachine extends the Algorithm 1 state with the cap-growth
// counter. It reuses the level dynamics verbatim and adds only the
// collision rule.
type adaptiveMachine struct {
	alg1Machine
	collisions int
	maxCap     int
	threshold  int
}

var _ Leveled = (*adaptiveMachine)(nil)

// Update applies the Algorithm 1 transition, then the cap-growth rule.
func (m *adaptiveMachine) Update(sent, heard beep.Signal) {
	collided := sent.Has(beep.Chan1) && heard.Has(beep.Chan1)
	m.alg1Machine.Update(sent, heard)
	if !collided {
		return
	}
	m.collisions++
	if m.collisions < m.threshold {
		return
	}
	m.collisions = 0
	newCap := 2 * int(m.lmax)
	if newCap > m.maxCap {
		newCap = m.maxCap
	}
	m.lmax = int32(newCap)
	// Levels stay valid under a growing cap; nothing to clamp.
}

// Randomize draws an arbitrary state of the extended space: cap,
// level, and collision counter are all corruptible RAM.
func (m *adaptiveMachine) Randomize(src *rng.Source) {
	// A uniform cap among the reachable doublings.
	caps := []int{}
	for c := 4; c <= m.maxCap; c *= 2 {
		caps = append(caps, c)
	}
	if len(caps) == 0 {
		caps = []int{m.maxCap}
	}
	m.lmax = int32(caps[src.Intn(len(caps))])
	m.level = int32(src.Intn(int(2*m.lmax+1))) - m.lmax
	m.collisions = src.Intn(m.threshold)
}
