package repro

import (
	"testing"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Whole-run benchmarks: the BENCH_sparse.json provenance. The per-round
// benches in bench_test.go measure a convergence-phase round; the
// sparse path's payoff is the whole execution, where activity decays
// geometrically after the first rounds and the frontier collapses to
// the few still-contending neighborhoods. Each benchmark times a
// complete fixed-length run — the instance's own stabilization-round
// count, discovered once at setup with the legality probe (untimed; the
// stop check is orthogonal to the engine work measured here).

// stabilizationRounds discovers the instance's stabilization round; the
// result is seed-determined.
func stabilizationRounds(b *testing.B, t graph.Topology, seed uint64) int {
	b.Helper()
	proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	net, err := beep.NewNetwork(t, proto, seed, beep.WithEngine(beep.Flat))
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()
	var probe core.State
	r, ok := net.Run(10_000_000, func() bool {
		return probe.Refresh(net) == nil && probe.Stabilized()
	})
	if !ok {
		b.Fatal("no stabilization")
	}
	return r
}

func benchWholeRun(b *testing.B, t graph.Topology, seed uint64) {
	b.Helper()
	rounds := stabilizationRounds(b, t, seed)
	proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net, err := beep.NewNetwork(t, proto, seed, beep.WithEngine(beep.Flat))
		if err != nil {
			b.Fatal(err)
		}
		net.RandomizeAll()
		b.StartTimer()
		for r := 0; r < rounds; r++ {
			net.Step()
		}
		b.StopTimer()
		net.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkWholeRunFlat4k: complete run on the 4k G(n,p) instance the
// per-round benches use — the CI smoke size.
func BenchmarkWholeRunFlat4k(b *testing.B) {
	benchWholeRun(b, graph.GNPAvgDegree(4096, 8, rng.New(2)), 3)
}

// BenchmarkWholeRunFlat1M: complete run at n = 10⁶ on the implicit
// torus (zero-storage graph, so the measurement is pure simulator
// cost). The BENCH_sparse.json headline row.
func BenchmarkWholeRunFlat1M(b *testing.B) {
	if testing.Short() {
		b.Skip("n=10^6 whole-run benchmark skipped in -short mode")
	}
	benchWholeRun(b, graph.ImplicitTorus(1000, 1000), 3)
}

// BenchmarkWholeRunFlat10M: complete run at n = 10⁷, the scale where the
// sparse path's activity gating decides whether scaling experiments are
// practical.
func BenchmarkWholeRunFlat10M(b *testing.B) {
	if testing.Short() {
		b.Skip("n=10^7 whole-run benchmark skipped in -short mode")
	}
	benchWholeRun(b, graph.ImplicitTorus(2500, 4000), 3)
}

// BenchmarkSparseRound benches the steady-state round — the regime a
// perpetually-running self-stabilizing protocol spends its life in.
// The network is stabilized before the timed loop, so the sparse path's
// dirty-word tracking elides the round in O(1). Sub-benchmarks at the
// CI smoke size and at n = 10⁷, where any O(n) work per round would be
// milliseconds.
func BenchmarkSparseRound(b *testing.B) {
	cases := []struct {
		name string
		t    graph.Topology
	}{
		{"4k", graph.GNPAvgDegree(4096, 8, rng.New(2))},
	}
	if !testing.Short() {
		cases = append(cases, struct {
			name string
			t    graph.Topology
		}{"10M", graph.ImplicitTorus(2500, 4000)})
	}
	proto := func() beep.Protocol { return core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta)) }
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			net, err := beep.NewNetwork(c.t, proto(), 3, beep.WithEngine(beep.Flat))
			if err != nil {
				b.Fatal(err)
			}
			defer net.Close()
			net.RandomizeAll()
			var probe core.State
			if _, ok := net.Run(10_000_000, func() bool {
				return probe.Refresh(net) == nil && probe.Stabilized()
			}); !ok {
				b.Fatal("no stabilization")
			}
			net.Step() // settle into the quiescent fast path
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Step()
			}
		})
	}
}
