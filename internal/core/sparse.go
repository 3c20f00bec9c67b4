package core

import (
	"math/bits"

	"repro/internal/beep"
)

// This file implements the activity-gated kernel forms of
// beep.FlatProtocol (EmitSparse/UpdateSparse) for the three machine
// slabs. Each sparse
// kernel is the corresponding range kernel restricted to the slab
// words whose bit is set in an activity mask: word wi of the slab
// (vertices [wi*64, wi*64+64)) is visited iff bit wi of the mask is
// set, and the kernel reports back a same-shaped output mask of the
// words where it consumed randomness (emit) or moved state (update).
//
// Skipping an unmarked word is exact, not approximate: the engine only
// clears a word's activity bit when every vertex in it emitted
// deterministically (no draw) and kept its state last round, in which
// case this round's emit is the same deterministic function of the
// same state — Sent is already correct and no stream advances. The
// same argument makes update skipping an identity: an unmarked update
// word saw the identical (state, sent, heard) triple as the previous
// round, where the transition changed nothing.
//
// The sparse forms run only on the fault-free path: the engine falls
// back to the dense kernels whenever a skip mask (sleepers,
// adversaries) or noise is in play, so env.Skip is nil here by
// contract.

// maskBits returns act[mi] clamped so that only bits naming slab words
// inside [wlo, whi] (inclusive word bounds) survive.
func maskBits(act []uint64, mi, wlo, whi int) uint64 {
	m := act[mi]
	if mi == wlo>>6 {
		m &= ^uint64(0) << uint(wlo&63)
	}
	if mi == whi>>6 {
		if r := whi & 63; r != 63 {
			m &= uint64(1)<<uint(r+1) - 1
		}
	}
	return m
}

// alg1EmitSparse is the Algorithm 1 emit rule over the active words of
// [lo, hi), shared with the adaptive heuristic via the state accessor.
func alg1EmitSparse[M any](env *beep.FlatEnv, ms []M, act, drewW []uint64, lo, hi int, state func(*M) *alg1Machine) {
	if hi <= lo {
		return
	}
	sent, srcs := env.Sent, env.Srcs
	drew := false
	wlo, whi := lo>>6, (hi-1)>>6
	for mi := wlo >> 6; mi <= whi>>6; mi++ {
		m := maskBits(act, mi, wlo, whi)
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			wi := mi<<6 + b
			start, end := wi<<6, wi<<6+64
			if start < lo {
				start = lo
			}
			if end > hi {
				end = hi
			}
			wordDrew := false
			for v := start; v < end; v++ {
				mm := state(&ms[v])
				lv := mm.level
				switch {
				case lv >= mm.lmax:
					sent[v] = beep.Silent
				case lv <= 0:
					sent[v] = beep.Chan1
				default:
					wordDrew = true
					if srcs[v].Bernoulli2Pow(int(lv)) {
						sent[v] = beep.Chan1
					} else {
						sent[v] = beep.Silent
					}
				}
			}
			if wordDrew {
				drewW[mi] |= uint64(1) << uint(b)
				drew = true
			}
		}
	}
	if drew {
		env.Drew = true
	}
}

// sparseUpdate applies a slab transition over the marked words of
// [lo, hi), recording per-word change bits.
func sparseUpdate[M any](env *beep.FlatEnv, ms []M, upd, changedW []uint64, lo, hi int, step func(*M, beep.Signal, beep.Signal) bool) {
	if hi <= lo {
		return
	}
	sent, heard := env.Sent, env.Heard
	changed := false
	wlo, whi := lo>>6, (hi-1)>>6
	for mi := wlo >> 6; mi <= whi>>6; mi++ {
		m := maskBits(upd, mi, wlo, whi)
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			wi := mi<<6 + b
			start, end := wi<<6, wi<<6+64
			if start < lo {
				start = lo
			}
			if end > hi {
				end = hi
			}
			wordChanged := false
			for v := start; v < end; v++ {
				if step(&ms[v], sent[v], heard[v]) {
					wordChanged = true
				}
			}
			if wordChanged {
				changedW[mi] |= uint64(1) << uint(b)
				changed = true
			}
		}
	}
	if changed {
		env.Changed = true
	}
}

// EmitSparse implements beep.FlatProtocol.
func (s *alg1Slab) EmitSparse(env *beep.FlatEnv, act, drewW []uint64, lo, hi int) {
	alg1EmitSparse(env, s.ms, act, drewW, lo, hi, func(m *alg1Machine) *alg1Machine { return m })
}

// UpdateSparse implements beep.FlatProtocol.
func (s *alg1Slab) UpdateSparse(env *beep.FlatEnv, upd, changedW []uint64, lo, hi int) {
	sparseUpdate(env, s.ms, upd, changedW, lo, hi, alg1Step)
}

// EmitSparse implements beep.FlatProtocol: beep₂ at ℓ = 0 (no
// randomness), beep₁ with probability 2^-ℓ while 0 < ℓ < ℓmax.
func (s *alg2Slab) EmitSparse(env *beep.FlatEnv, act, drewW []uint64, lo, hi int) {
	if hi <= lo {
		return
	}
	ms := s.ms
	sent, srcs := env.Sent, env.Srcs
	drew := false
	wlo, whi := lo>>6, (hi-1)>>6
	for mi := wlo >> 6; mi <= whi>>6; mi++ {
		m := maskBits(act, mi, wlo, whi)
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			wi := mi<<6 + b
			start, end := wi<<6, wi<<6+64
			if start < lo {
				start = lo
			}
			if end > hi {
				end = hi
			}
			wordDrew := false
			for v := start; v < end; v++ {
				lv := ms[v].level
				switch {
				case lv == 0:
					sent[v] = beep.Chan2
				case lv >= ms[v].lmax:
					sent[v] = beep.Silent
				default:
					wordDrew = true
					if srcs[v].Bernoulli2Pow(int(lv)) {
						sent[v] = beep.Chan1
					} else {
						sent[v] = beep.Silent
					}
				}
			}
			if wordDrew {
				drewW[mi] |= uint64(1) << uint(b)
				drew = true
			}
		}
	}
	if drew {
		env.Drew = true
	}
}

// UpdateSparse implements beep.FlatProtocol.
func (s *alg2Slab) UpdateSparse(env *beep.FlatEnv, upd, changedW []uint64, lo, hi int) {
	sparseUpdate(env, s.ms, upd, changedW, lo, hi, alg2Step)
}

// EmitSparse implements beep.FlatProtocol (Algorithm 1 emit rule,
// promoted unchanged by the adaptive heuristic).
func (s *adaptiveSlab) EmitSparse(env *beep.FlatEnv, act, drewW []uint64, lo, hi int) {
	alg1EmitSparse(env, s.ms, act, drewW, lo, hi, func(m *adaptiveMachine) *alg1Machine { return &m.alg1Machine })
}

// UpdateSparse implements beep.FlatProtocol (the cap-doubling
// collision rule rides along in adaptiveStep, so a collision marks the
// word changed even when the level is pinned).
func (s *adaptiveSlab) UpdateSparse(env *beep.FlatEnv, upd, changedW []uint64, lo, hi int) {
	sparseUpdate(env, s.ms, upd, changedW, lo, hi, adaptiveStep)
}
