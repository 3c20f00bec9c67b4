package core

import (
	"fmt"
	"testing"

	"repro/internal/beep"
	"repro/internal/graph"
	"repro/internal/rng"
)

// The tests in this file cross-validate the detector's changed-word
// path: State.Refresh re-exporting only the slab words the engine
// reports changed (beep.Network.TakeChangedWords). Their reference is
// read without touching the network's changed-word mask — the bulk
// export into NewStateWith — because every other way of reading levels
// defeats the path under test: net.Machine(v) marks every word, and
// Refreshing a second State hands the mask's ownership over, so the
// probe would silently take its full-diff fallback on every round.

// maskOracle returns the from-scratch reference for net's current
// configuration, read mark-free.
func maskOracle(net *beep.Network, excluded []bool) *State {
	le := net.BulkState().(LevelExporter)
	n := net.N()
	levels, caps := make([]int32, n), make([]int32, n)
	le.ExportLevels(levels, caps)
	ref := NewStateWith(net.Graph(), levels, caps, le.TwoChannel())
	ref.SetExcluded(excluded)
	return ref
}

// checkAgainstOracle asserts Stabilized, StableCount and MISMask of
// probe against ref, and ref itself against a brute-force evaluation
// of the definitions (InMIS row scans), so the counter-based rebuild
// behind ref is not its own oracle.
func checkAgainstOracle(t *testing.T, tag string, probe, ref *State) {
	t.Helper()
	n := len(ref.levels)
	mis := make([]bool, n)
	for v := range mis {
		mis[v] = ref.InMIS(v)
	}
	stable := 0
	for v := 0; v < n; v++ {
		ok := ref.Excluded(v) || mis[v]
		for _, u := range ref.neighbors(v) {
			ok = ok || mis[u]
		}
		if ok {
			stable++
		}
	}
	if got := ref.StableCount(); got != stable {
		t.Fatalf("%s: reference StableCount=%d, brute force=%d", tag, got, stable)
	}
	if got, want := probe.Stabilized(), stable == n; got != want {
		t.Fatalf("%s: probe Stabilized=%v, reference=%v", tag, got, want)
	}
	if got := probe.StableCount(); got != stable {
		t.Fatalf("%s: probe StableCount=%d, reference=%d", tag, got, stable)
	}
	gotMIS, refMIS := probe.MISMask(), ref.MISMask()
	for v := range mis {
		if gotMIS[v] != mis[v] || refMIS[v] != mis[v] {
			t.Fatalf("%s: MIS bit of vertex %d: probe=%v reference=%v brute force=%v", tag, v, gotMIS[v], refMIS[v], mis[v])
		}
	}
}

// oracleRun drives one network with one probe State, checking it
// against the mark-free oracle after every Refresh and counting the
// Refreshes that took the changed-word path.
type oracleRun struct {
	t        *testing.T
	net      *beep.Network
	probe    State
	excluded []bool
	// wordPath counts Refreshes that re-captured through the engine's
	// changed-word mask (words or nothing) rather than a full export.
	wordPath int
}

func (o *oracleRun) check(tag string) {
	o.t.Helper()
	if err := o.probe.Refresh(o.net); err != nil {
		o.t.Fatal(err)
	}
	if !o.probe.pendAll {
		o.wordPath++
	}
	checkAgainstOracle(o.t, tag, &o.probe, maskOracle(o.net, o.excluded))
}

func (o *oracleRun) rounds(tag string, k int) {
	o.t.Helper()
	for r := 0; r < k; r++ {
		o.net.Step()
		o.check(fmt.Sprintf("%s round %d", tag, r))
	}
}

// settle steps until the probe has reported legal for five rounds.
func (o *oracleRun) settle(tag string) {
	o.t.Helper()
	quiet := 0
	for r := 0; r < 5000 && quiet < 5; r++ {
		o.net.Step()
		o.check(fmt.Sprintf("%s round %d", tag, r))
		if o.probe.Stabilized() {
			quiet++
		}
	}
	if quiet < 5 {
		o.t.Fatalf("%s: no stabilization", tag)
	}
}

// oracleProto is one core protocol under test; variant builds the same
// protocol with different caps wherever caps are a construction-time
// constant, so a State moved between the two networks must re-capture
// them.
type oracleProto struct {
	name          string
	make, variant func() beep.Protocol
}

func oracleProtos() []oracleProto {
	return []oracleProto{
		{"alg1",
			func() beep.Protocol { return NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta)) },
			func() beep.Protocol { return NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta + 3)) }},
		{"alg2",
			func() beep.Protocol { return NewAlg2(NeighborhoodMaxDegree(DefaultC1TwoHop)) },
			func() beep.Protocol { return NewAlg2(NeighborhoodMaxDegree(DefaultC1TwoHop + 3)) }},
		{"adaptive",
			func() beep.Protocol { return NewAdaptiveAlg1() },
			func() beep.Protocol { return NewAdaptiveAlg1() }},
	}
}

func oracleEngines() []struct {
	name string
	opts []beep.Option
} {
	return []struct {
		name string
		opts []beep.Option
	}{
		{"flat", []beep.Option{beep.WithEngine(beep.Flat)}},
		{"flatparallel-w2", []beep.Option{beep.WithEngine(beep.FlatParallel), beep.WithWorkers(2)}},
		{"flatparallel-w3", []beep.Option{beep.WithEngine(beep.FlatParallel), beep.WithWorkers(3)}},
		{"flat-forcedelta", []beep.Option{beep.WithEngine(beep.Flat), beep.ForceDeltaForTesting()}},
	}
}

// TestDetectorChangedWordOracle runs every flat engine row and core
// protocol through the external mutations that must saturate or mark
// the changed-word mask — Corrupt bursts (stepped and unstepped),
// Restore, Reseed, an exclusion-mask change and a Rewire — on a
// materialized graph and on an implicit (row-decoding) torus, checking
// the probe against the mark-free oracle after every Refresh.
func TestDetectorChangedWordOracle(t *testing.T) {
	topos := []struct {
		name string
		g    graph.Topology
	}{
		{"gnp", graph.GNPAvgDegree(200, 6, rng.New(41))},
		{"implicit-torus", graph.ImplicitTorus(12, 17)},
	}
	for _, topo := range topos {
		for _, eng := range oracleEngines() {
			for _, p := range oracleProtos() {
				t.Run(fmt.Sprintf("%s/%s/%s", topo.name, eng.name, p.name), func(t *testing.T) {
					net, err := beep.NewNetwork(topo.g, p.make(), 4242, eng.opts...)
					if err != nil {
						t.Fatal(err)
					}
					defer net.Close()
					net.RandomizeAll()
					o := &oracleRun{t: t, net: net}
					o.check("init")
					o.rounds("warm-up", 3)
					cp, err := net.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					o.settle("cold start")
					faults := rng.New(43)
					n := net.N()

					if err := net.Corrupt(faults.Perm(n)[:n/10]); err != nil {
						t.Fatal(err)
					}
					o.settle("corrupt burst")
					// A burst probed before any round: Corrupt's own
					// per-vertex marks are the only record of it.
					if err := net.Corrupt(faults.Perm(n)[:3]); err != nil {
						t.Fatal(err)
					}
					o.check("unstepped corrupt")
					o.settle("after unstepped corrupt")

					if err := net.Restore(cp); err != nil {
						t.Fatal(err)
					}
					o.check("restore")
					o.settle("after restore")

					// Reseed re-initializes every machine in place; no
					// per-vertex mark records it.
					if err := net.Reseed(99); err != nil {
						t.Fatal(err)
					}
					o.check("reseed")
					o.settle("after reseed")

					// An exclusion-mask change rebuilds the detector; the
					// changed-word path must resume from the rebuilt
					// counters.
					o.excluded = make([]bool, n)
					for _, v := range faults.Perm(n)[:n/8] {
						o.excluded[v] = true
					}
					o.probe.SetExcluded(o.excluded)
					if err := net.Corrupt(faults.Perm(n)[:n/10]); err != nil {
						t.Fatal(err)
					}
					o.rounds("excluded", 40)
					o.excluded = nil
					o.probe.SetExcluded(nil)
					o.settle("exclusion cleared")

					cur := graph.Materialize(net.Graph())
					g2, mapping, err := graph.ApplyEdits(cur, []graph.Edit{
						{Kind: graph.EditDelVertex, U: 5},
						{Kind: graph.EditAddVertex},
						{Kind: graph.EditAddEdge, U: cur.N(), V: 0},
						{Kind: graph.EditAddEdge, U: 1, V: 2 + cur.N()/2},
					})
					if err != nil {
						t.Fatal(err)
					}
					if err := net.Rewire(g2, mapping[:cur.N()]); err != nil {
						t.Fatal(err)
					}
					o.check("rewire")
					o.settle("after rewire")

					if o.wordPath == 0 {
						t.Fatal("the changed-word path never ran: the oracle compared only full-diff Refreshes")
					}
				})
			}
		}
	}
}

// TestDetectorChangedWordOwnership checks the two ways the changed-word
// mask can be consumed by the wrong State: two States alternating on
// one network (each take hands ownership over, so each must fall back
// to the full diff rather than miss the other's words), and one State
// moved between two networks of the same graph but different caps
// (each network's mask describes that network only, and the caps must
// be re-captured).
func TestDetectorChangedWordOwnership(t *testing.T) {
	topos := []struct {
		name string
		g    graph.Topology
	}{
		{"gnp", graph.GNPAvgDegree(160, 5, rng.New(51))},
		{"implicit-torus", graph.ImplicitTorus(9, 14)},
	}
	for _, topo := range topos {
		for _, p := range oracleProtos() {
			t.Run(fmt.Sprintf("%s/%s", topo.name, p.name), func(t *testing.T) {
				newNet := func(proto beep.Protocol, seed uint64) *beep.Network {
					net, err := beep.NewNetwork(topo.g, proto, seed, beep.WithEngine(beep.Flat))
					if err != nil {
						t.Fatal(err)
					}
					net.RandomizeAll()
					return net
				}
				a, b := newNet(p.make(), 61), newNet(p.variant(), 62)
				defer a.Close()
				defer b.Close()
				faults := rng.New(63)

				var p1, p2 State
				for r := 0; r < 120; r++ {
					a.Step()
					probe := &p1
					if r%2 == 1 {
						probe = &p2
					}
					if err := probe.Refresh(a); err != nil {
						t.Fatal(err)
					}
					checkAgainstOracle(t, fmt.Sprintf("alternating states round %d", r), probe, maskOracle(a, nil))
					if r == 60 {
						if err := a.Corrupt(faults.Perm(a.N())[:a.N()/5]); err != nil {
							t.Fatal(err)
						}
					}
				}

				var moving State
				for r := 0; r < 120; r++ {
					a.Step()
					b.Step()
					net := a
					if r%2 == 1 {
						net = b
					}
					if err := moving.Refresh(net); err != nil {
						t.Fatal(err)
					}
					checkAgainstOracle(t, fmt.Sprintf("moving state round %d", r), &moving, maskOracle(net, nil))
					if r == 60 {
						if err := b.Corrupt(faults.Perm(b.N())[:b.N()/5]); err != nil {
							t.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// TestDetectorChangedWordAdversaries runs the probe on networks with
// adversaries installed: every round is a fault-model round the masks do
// not describe, so the probe must take the full diff under the
// network's exclusion mask, through a Rewire that renumbers the
// adversary set.
func TestDetectorChangedWordAdversaries(t *testing.T) {
	g := graph.GNPAvgDegree(120, 5, rng.New(71))
	for _, eng := range oracleEngines() {
		t.Run(eng.name, func(t *testing.T) {
			opts := append([]beep.Option{
				beep.WithAdversaries(beep.AdvJammer, []int{3}),
				beep.WithAdversaries(beep.AdvBabbler, []int{10, 17}),
			}, eng.opts...)
			net, err := beep.NewNetwork(g, NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta)), 72, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			net.RandomizeAll()
			o := &oracleRun{t: t, net: net}
			capture := func() {
				o.excluded = make([]bool, net.N())
				net.FillAdversaryMask(o.excluded)
				o.probe.SetExcluded(o.excluded)
			}
			capture()
			o.rounds("adversaries", 150)
			g2, mapping, err := graph.ApplyEdits(g, []graph.Edit{
				{Kind: graph.EditDelVertex, U: 2},
				{Kind: graph.EditAddVertex},
				{Kind: graph.EditAddEdge, U: g.N() - 1, V: 0},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Rewire(g2, mapping[:g.N()]); err != nil {
				t.Fatal(err)
			}
			capture()
			o.rounds("after rewire", 150)
		})
	}
}
