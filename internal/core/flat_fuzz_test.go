package core

import (
	"testing"

	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/rng"
)

// FuzzFlatEmitDrawEquivalence fuzzes the contract that makes the flat
// kernels trace-exact: for an arbitrary level configuration, EmitRange
// over the whole cohort must produce the same signals AND consume each
// vertex's private stream exactly as the per-machine Emit would — the
// same number of draws in the same order. The draw-sequence
// part is checked by comparing the next word of every stream after the
// pass: a kernel that short-circuits a draw (or adds one) desynchronizes
// the stream and fails here even when this round's signals happen to
// match.
func FuzzFlatEmitDrawEquivalence(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 250, 7, 130})
	f.Add(uint64(99), []byte{128, 128, 128})
	f.Add(uint64(7), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		if len(data) < 3 {
			return
		}
		if len(data) > 128 {
			data = data[:128]
		}
		n := len(data)
		g := graph.Cycle(n)
		protos := []beep.Protocol{
			NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta)),
			NewAlg2(NeighborhoodMaxDegree(DefaultC1TwoHop)),
			NewAdaptiveAlg1(),
		}
		for pi, proto := range protos {
			bp := proto.(beep.BatchProtocol)
			kernelMs, bulk := bp.NewMachines(g)
			refMs, _ := bp.NewMachines(g)
			ops, ok := bulk.(beep.FlatProtocol)
			if !ok {
				t.Fatalf("proto %d: bulk %T has no flat kernels", pi, bulk)
			}
			// Install the fuzzed levels on both cohorts (SetLevel clamps
			// into each machine's valid space).
			for v := 0; v < n; v++ {
				l := int(int8(data[v]))
				kernelMs[v].(Leveled).SetLevel(l)
				refMs[v].(Leveled).SetLevel(l)
			}
			// Two identically derived stream families.
			rootK, rootR := rng.New(seed), rng.New(seed)
			srcsK := make([]*rng.Source, n)
			srcsR := make([]*rng.Source, n)
			for v := 0; v < n; v++ {
				srcsK[v] = rootK.Split(uint64(v))
				srcsR[v] = rootR.Split(uint64(v))
			}
			env := &beep.FlatEnv{
				Sent:  make([]beep.Signal, n),
				Heard: make([]beep.Signal, n),
				Srcs:  srcsK,
			}
			ops.EmitRange(env, 0, n)
			drew := false
			for v := 0; v < n; v++ {
				want := refMs[v].Emit(srcsR[v])
				if env.Sent[v] != want {
					t.Fatalf("proto %d vertex %d: kernel emitted %v, machine %v (level %d)",
						pi, v, env.Sent[v], want, int(int8(data[v])))
				}
			}
			// Draw-sequence equivalence: every stream must sit at the
			// same position after the pass.
			for v := 0; v < n; v++ {
				k, r := srcsK[v].Uint64(), srcsR[v].Uint64()
				if k != r {
					t.Fatalf("proto %d vertex %d: stream desynchronized after emit (kernel next=%#x, machine next=%#x)",
						pi, v, k, r)
				}
				if k != rng.New(seed).Split(uint64(v)).Uint64() {
					drew = true // at least this stream advanced
				}
			}
			if drew && !env.Drew {
				t.Fatalf("proto %d: kernel consumed randomness but left env.Drew unset (breaks the distributed stop detection)", pi)
			}

			// Update equivalence on a fuzzed heard pattern: the kernels
			// must apply the same transitions the machines do.
			heard := make([]beep.Signal, n)
			for v := 0; v < n; v++ {
				heard[v] = beep.Signal(data[(v+1)%n] & 3)
			}
			copy(env.Heard, heard)
			ops.UpdateRange(env, 0, n)
			for v := 0; v < n; v++ {
				refMs[v].Update(env.Sent[v], heard[v])
				got := kernelMs[v].(Leveled).Level()
				want := refMs[v].(Leveled).Level()
				if got != want {
					t.Fatalf("proto %d vertex %d: kernel level %d, machine level %d after update", pi, v, got, want)
				}
			}
		}
	})
}
