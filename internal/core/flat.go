package core

import (
	"repro/internal/beep"
	"repro/internal/graph"
)

// This file implements the dense flat-engine kernels
// (beep.FlatProtocol's range forms) and in-place
// re-initialization (beep.FlatReiniter) for the three machine slabs;
// sparse.go adds the activity-gated forms. Each kernel is the loop body
// of the corresponding Machine.Emit/Update inlined over the contiguous
// slab, with the per-vertex interface dispatch and pointer chase
// removed; every vertex consumes precisely the draws its machine would
// have, so flat executions are bit-identical to the reference loop
// (pinned by TestEngineTraceEquivalence and
// FuzzFlatEmitDrawEquivalence).
//
// Each kernel has two loop variants: a fast one for the common case of
// no skip mask (no per-vertex mask probe), and a general one handling
// sleeping/adversarial vertices, whose Sent entries the engine
// pre-filled and whose state must not move. Both maintain the
// env.Drew / env.Changed fixed-point flags.

var (
	_ beep.FlatProtocol = (*alg1Slab)(nil)
	_ beep.FlatReiniter = (*alg1Slab)(nil)
	_ beep.FlatProtocol = (*alg2Slab)(nil)
	_ beep.FlatReiniter = (*alg2Slab)(nil)
	_ beep.FlatProtocol = (*adaptiveSlab)(nil)
	_ beep.FlatReiniter = (*adaptiveSlab)(nil)
)

// flatBern draws one Bernoulli(2^-l) trial for vertex v from its private
// stream. l <= 0 succeeds without consuming randomness (and therefore
// without setting env.Drew).
func flatBern(env *beep.FlatEnv, v int, l int32) bool {
	if l <= 0 {
		return true
	}
	env.Drew = true
	return env.Srcs[v].Bernoulli2Pow(int(l))
}

// --- Algorithm 1 ---

// alg1EmitRange is alg1Machine.Emit over the [lo, hi) stripe of a slab
// of Algorithm 1 states (shared verbatim by the adaptive heuristic,
// which promotes the emit rule unchanged): beep with probability
// min{2^-ℓ, 1} while ℓ < ℓmax. Vertices at ℓ ≤ 0 beep surely and, like
// the per-machine path, consume no randomness — in a stabilized
// configuration (MIS members at -ℓmax, the rest at ℓmax) the whole loop
// makes zero generator calls. The stripe touches only Sent[lo:hi) and
// the streams of vertices in [lo, hi), the write-disjointness contract
// of beep.FlatProtocol's range forms.
func alg1EmitRange[M any](env *beep.FlatEnv, ms []M, lo, hi int, state func(*M) *alg1Machine) {
	sent := env.Sent
	if env.Skip == nil {
		srcs := env.Srcs
		drew := false
		for v := lo; v < hi; v++ {
			m := state(&ms[v])
			lv := m.level
			switch {
			case lv >= m.lmax:
				sent[v] = beep.Silent
			case lv <= 0:
				sent[v] = beep.Chan1
			default:
				drew = true
				if srcs[v].Bernoulli2Pow(int(lv)) {
					sent[v] = beep.Chan1
				} else {
					sent[v] = beep.Silent
				}
			}
		}
		if drew {
			env.Drew = true
		}
		return
	}
	for v := lo; v < hi; v++ {
		if env.Skipped(v) {
			continue
		}
		m := state(&ms[v])
		if m.level < m.lmax && flatBern(env, v, m.level) {
			sent[v] = beep.Chan1
		} else {
			sent[v] = beep.Silent
		}
	}
}

// EmitRange is alg1Machine.Emit over the [lo, hi) stripe of the slab
// (beep.FlatProtocol).
func (s *alg1Slab) EmitRange(env *beep.FlatEnv, lo, hi int) {
	alg1EmitRange(env, s.ms, lo, hi, func(m *alg1Machine) *alg1Machine { return m })
}

// alg1Step is the Algorithm 1 level transition (alg1Machine.Update) on
// a slab entry, reporting whether the level moved.
func alg1Step(m *alg1Machine, sent, heard beep.Signal) bool {
	lv := m.level
	var nl int32
	switch {
	case heard&beep.Chan1 != 0:
		nl = lv + 1
		if nl > m.lmax {
			nl = m.lmax
		}
	case sent&beep.Chan1 != 0:
		nl = -m.lmax
	default:
		nl = lv - 1
		if nl < 1 {
			nl = 1
		}
	}
	m.level = nl
	return nl != lv
}

// UpdateRange is alg1Machine.Update over the [lo, hi) stripe of the
// slab (beep.FlatProtocol).
func (s *alg1Slab) UpdateRange(env *beep.FlatEnv, lo, hi int) {
	ms := s.ms
	sent, heard := env.Sent, env.Heard
	changed := false
	if env.Skip == nil {
		for v := lo; v < hi; v++ {
			if alg1Step(&ms[v], sent[v], heard[v]) {
				changed = true
			}
		}
	} else {
		for v := lo; v < hi; v++ {
			if env.Skipped(v) {
				continue
			}
			if alg1Step(&ms[v], sent[v], heard[v]) {
				changed = true
			}
		}
	}
	if changed {
		env.Changed = true
	}
}

// ReinitAll restores every machine to its construction-time state for
// g, exactly as NewMachines would have built it (beep.FlatReiniter).
func (s *alg1Slab) ReinitAll(g graph.Topology) {
	for v := range s.ms {
		s.p.initMachine(&s.ms[v], v, g)
	}
}

// --- Algorithm 2 ---

// EmitRange is alg2Machine.Emit over the [lo, hi) stripe of the slab
// (beep.FlatProtocol): beep₂ at ℓ = 0 (the MIS announcement, no
// randomness), beep₁ with probability 2^-ℓ while 0 < ℓ < ℓmax.
func (s *alg2Slab) EmitRange(env *beep.FlatEnv, lo, hi int) {
	ms := s.ms
	sent := env.Sent
	if env.Skip == nil {
		srcs := env.Srcs
		drew := false
		for v := lo; v < hi; v++ {
			lv := ms[v].level
			switch {
			case lv == 0:
				sent[v] = beep.Chan2
			case lv >= ms[v].lmax:
				sent[v] = beep.Silent
			default:
				drew = true
				if srcs[v].Bernoulli2Pow(int(lv)) {
					sent[v] = beep.Chan1
				} else {
					sent[v] = beep.Silent
				}
			}
		}
		if drew {
			env.Drew = true
		}
		return
	}
	for v := lo; v < hi; v++ {
		if env.Skipped(v) {
			continue
		}
		lv, lmax := ms[v].level, ms[v].lmax
		switch {
		case lv == 0:
			sent[v] = beep.Chan2
		case lv < lmax && flatBern(env, v, lv):
			sent[v] = beep.Chan1
		default:
			sent[v] = beep.Silent
		}
	}
}

// alg2Step is the Algorithm 2 level transition (alg2Machine.Update) on
// a slab entry, reporting whether the level moved.
func alg2Step(m *alg2Machine, sent, heard beep.Signal) bool {
	lv := m.level
	nl := lv
	switch {
	case heard&beep.Chan2 != 0:
		nl = m.lmax
	case heard&beep.Chan1 != 0:
		nl = lv + 1
		if nl > m.lmax {
			nl = m.lmax
		}
	case sent&beep.Chan1 != 0:
		nl = 0
	case sent&beep.Chan2 == 0:
		nl = lv - 1
		if nl < 1 {
			nl = 1
		}
	}
	m.level = nl
	return nl != lv
}

// UpdateRange is alg2Machine.Update over the [lo, hi) stripe of the
// slab (beep.FlatProtocol).
func (s *alg2Slab) UpdateRange(env *beep.FlatEnv, lo, hi int) {
	ms := s.ms
	sent, heard := env.Sent, env.Heard
	changed := false
	if env.Skip == nil {
		for v := lo; v < hi; v++ {
			if alg2Step(&ms[v], sent[v], heard[v]) {
				changed = true
			}
		}
	} else {
		for v := lo; v < hi; v++ {
			if env.Skipped(v) {
				continue
			}
			if alg2Step(&ms[v], sent[v], heard[v]) {
				changed = true
			}
		}
	}
	if changed {
		env.Changed = true
	}
}

// ReinitAll restores every machine to its construction-time state for
// g (beep.FlatReiniter).
func (s *alg2Slab) ReinitAll(g graph.Topology) {
	for v := range s.ms {
		s.p.initMachine(&s.ms[v], v, g)
	}
}

// --- Adaptive heuristic ---

// EmitRange is the Algorithm 1 emit rule over the [lo, hi) stripe of
// the adaptive slab (beep.FlatProtocol; adaptiveMachine promotes
// alg1Machine.Emit unchanged).
func (s *adaptiveSlab) EmitRange(env *beep.FlatEnv, lo, hi int) {
	alg1EmitRange(env, s.ms, lo, hi, func(m *adaptiveMachine) *alg1Machine { return &m.alg1Machine })
}

// adaptiveStep is adaptiveMachine.Update on a slab entry: the Algorithm
// 1 transition followed by the collision-driven cap doubling. It
// reports whether any state (level, cap, or collision counter) moved —
// a collision always moves the counter or the cap.
func adaptiveStep(m *adaptiveMachine, sent, heard beep.Signal) bool {
	collided := sent&beep.Chan1 != 0 && heard&beep.Chan1 != 0
	changed := alg1Step(&m.alg1Machine, sent, heard)
	if !collided {
		return changed
	}
	m.collisions++
	if m.collisions >= m.threshold {
		m.collisions = 0
		newCap := 2 * int(m.lmax)
		if newCap > m.maxCap {
			newCap = m.maxCap
		}
		m.lmax = int32(newCap)
	}
	return true
}

// UpdateRange is adaptiveMachine.Update over the [lo, hi) stripe of
// the adaptive slab (beep.FlatProtocol).
func (s *adaptiveSlab) UpdateRange(env *beep.FlatEnv, lo, hi int) {
	ms := s.ms
	sent, heard := env.Sent, env.Heard
	changed := false
	if env.Skip == nil {
		for v := lo; v < hi; v++ {
			if adaptiveStep(&ms[v], sent[v], heard[v]) {
				changed = true
			}
		}
	} else {
		for v := lo; v < hi; v++ {
			if env.Skipped(v) {
				continue
			}
			if adaptiveStep(&ms[v], sent[v], heard[v]) {
				changed = true
			}
		}
	}
	if changed {
		env.Changed = true
	}
}

// ReinitAll restores every machine to its construction-time state
// (beep.FlatReiniter; the adaptive machines carry no per-vertex
// topology knowledge, so g is unused beyond the interface contract).
func (s *adaptiveSlab) ReinitAll(graph.Topology) {
	for v := range s.ms {
		s.p.initMachine(&s.ms[v])
	}
}
