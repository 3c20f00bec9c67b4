package beep

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// decayProtocol is a one-channel kernel protocol whose activity dies
// out, so partitioned rounds exercise frontier gating and not only the
// exchange: a vertex with left > 0 rounds to go flips a coin and beeps
// on heads; one at left == 0 is silent and draws nothing, except that
// the first time it hears a beep it wakes for one more round. Once
// every vertex has spent its wake-up and its rounds, the
// configuration is a fixed point.
type decayProtocol struct{}

type decayMachine struct{ left, woke int32 }

func (m *decayMachine) Emit(src *rng.Source) Signal {
	if m.left > 0 && src.Coin() {
		return Chan1
	}
	return Silent
}

// step is the transition shared by Update and the kernels; it reports
// whether the state moved.
func (m *decayMachine) step(heard Signal) bool {
	switch {
	case m.left > 0:
		m.left--
	case heard.Has(Chan1) && m.woke == 0:
		m.left, m.woke = 1, 1
	default:
		return false
	}
	return true
}

func (m *decayMachine) Update(_, heard Signal)    { m.step(heard) }
func (m *decayMachine) Randomize(src *rng.Source) { m.left, m.woke = int32(src.Intn(6)), 0 }

func (decayProtocol) Channels() int { return 1 }
func (decayProtocol) NewMachine(int, graph.Topology) Machine {
	return &decayMachine{}
}
func (decayProtocol) NewMachines(g graph.Topology) ([]Machine, any) {
	slab := make([]decayMachine, g.N())
	ms := make([]Machine, g.N())
	for v := range ms {
		ms[v] = &slab[v]
	}
	return ms, decayOps(slab)
}

// decayOps is decayProtocol's flat kernel handle over the machine slab.
type decayOps []decayMachine

func (o decayOps) EmitRange(env *FlatEnv, lo, hi int) {
	for v := lo; v < hi; v++ {
		if env.Skipped(v) {
			continue
		}
		if o[v].left > 0 {
			env.Drew = true
		}
		env.Sent[v] = o[v].Emit(env.Srcs[v])
	}
}

func (o decayOps) UpdateRange(env *FlatEnv, lo, hi int) {
	for v := lo; v < hi; v++ {
		if !env.Skipped(v) && o[v].step(env.Heard[v]) {
			env.Changed = true
		}
	}
}

// eachMarked calls fn for every vertex range [a, b) of a slab word of
// [lo, hi) whose bit is set in mask.
func eachMarked(mask []uint64, lo, hi int, fn func(wi, a, b int)) {
	for v := lo; v < hi; v = (v | 63) + 1 {
		wi := v >> 6
		if mask[wi>>6]&(1<<uint(wi&63)) != 0 {
			fn(wi, v, min(hi, (wi+1)<<6))
		}
	}
}

func (o decayOps) EmitSparse(env *FlatEnv, act, drewW []uint64, lo, hi int) {
	eachMarked(act, lo, hi, func(wi, a, b int) {
		env.Drew = false
		o.EmitRange(env, a, b)
		if env.Drew {
			drewW[wi>>6] |= 1 << uint(wi&63)
		}
	})
	env.Drew = anyBit(drewW)
}

func (o decayOps) UpdateSparse(env *FlatEnv, upd, changedW []uint64, lo, hi int) {
	eachMarked(upd, lo, hi, func(wi, a, b int) {
		env.Changed = false
		o.UpdateRange(env, a, b)
		if env.Changed {
			changedW[wi>>6] |= 1 << uint(wi&63)
		}
	})
	env.Changed = anyBit(changedW)
}

func anyBit(m []uint64) bool {
	for _, w := range m {
		if w != 0 {
			return true
		}
	}
	return false
}

// TestPartitionEquivalence pins the partition determinism contract on
// the delta round protocol: k networks each stepping only its own
// vertex range, with an in-test coordinator OR-merging the changed
// sender-word uploads and sending every changed merged word back,
// reproduce the single-process Flat execution signal for signal. The
// splits include unaligned ranges (shared boundary words need the
// masked pack and the OR-merge) and an empty range.
func TestPartitionEquivalence(t *testing.T) {
	g := graph.GNPAvgDegree(300, 3, rng.New(3))
	const seed, rounds = 9, 40
	words := (g.N() + 63) / 64

	// Reference: whole-network Flat execution, signals recorded per round.
	var refSent, refHeard [][]Signal
	ref, err := NewNetwork(g, decayProtocol{}, seed, WithEngine(Flat),
		WithObserver(func(round int, sent, heard []Signal) {
			refSent = append(refSent, append([]Signal(nil), sent...))
			refHeard = append(refHeard, append([]Signal(nil), heard...))
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.RandomizeAll()
	for r := 0; r < rounds; r++ {
		if err := ref.TryStep(); err != nil {
			t.Fatal(err)
		}
	}

	for _, split := range [][]int{
		{0, 300},
		{0, 128, 300},
		{0, 37, 200, 300},
		{0, 1, 63, 65, 300},
		{0, 64, 64, 300},
	} {
		// One full network per range, as distributed workers hold.
		parts := make([]*Partition, len(split)-1)
		for i := range parts {
			net, err := NewNetwork(g, decayProtocol{}, seed, WithEngine(Flat))
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			net.RandomizeAll()
			p, err := net.Partition(split[i], split[i+1])
			if err != nil {
				t.Fatal(err)
			}
			p.EnableSparse()
			parts[i] = p
		}
		cur := make([][]uint64, len(parts)) // last upload per partition
		for i := range cur {
			cur[i] = make([]uint64, words)
		}
		merged := make([]uint64, words)
		gated := false
		for r := 0; r < rounds; r++ {
			frontier := 0
			for _, p := range parts {
				frontier += p.FrontierWords()
				if _, err := p.EmitLocalSparse(); err != nil {
					t.Fatalf("%v round %d: emit: %v", split, r+1, err)
				}
			}
			if r > 0 && frontier < words {
				gated = true
			}
			// Coordinator: re-merge each uploaded word by OR over every
			// partition's last upload (foreign bits are zero), and send
			// back the merged words that changed.
			for i, p := range parts {
				wis, vals := p.SparseUpload(0)
				for k, wi := range wis {
					cur[i][wi] = vals[k]
				}
			}
			var dirty []int
			for wi := range merged {
				var m uint64
				for i := range parts {
					m |= cur[i][wi]
				}
				if m != merged[wi] {
					merged[wi] = m
					dirty = append(dirty, wi)
				}
			}
			for _, p := range parts {
				for _, wi := range dirty {
					p.ApplyDeltaWord(0, wi, merged[wi])
				}
				if _, err := p.UpdateLocalSparse(); err != nil {
					t.Fatalf("%v round %d: update: %v", split, r+1, err)
				}
			}
			for _, p := range parts {
				lo, hi := p.Range()
				sent, heard := p.Signals()
				for v := lo; v < hi; v++ {
					if sent[v] != refSent[r][v] || heard[v] != refHeard[r][v] {
						t.Fatalf("%v round %d vertex %d: partitioned sent/heard %v/%v, reference %v/%v",
							split, r+1, v, sent[v], heard[v], refSent[r][v], refHeard[r][v])
					}
				}
			}
		}
		if !gated {
			t.Fatalf("%v: the frontier never shrank below all %d words; gating went unexercised", split, words)
		}
	}
}

// TestPartitionValidation pins the construction-time rejections: bad
// ranges, protocols without flat kernels, and the shared-sequential-
// randomness features (noise, sleep, adversaries) that ranges cannot
// split.
func TestPartitionValidation(t *testing.T) {
	g := graph.Cycle(64)

	flat := func(opts ...Option) *Network {
		t.Helper()
		net, err := NewNetwork(g, flatPanicProtocol{round: -1}, 1, append([]Option{WithEngine(Flat)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(net.Close)
		return net
	}

	for _, bad := range [][2]int{{-1, 10}, {10, 5}, {0, 65}} {
		if _, err := flat().Partition(bad[0], bad[1]); err == nil {
			t.Fatalf("range [%d, %d) accepted", bad[0], bad[1])
		}
	}

	// No flat kernels (Sequential engine leaves flatOps nil even for
	// protocols that have them — Partition is tied to the flat path).
	seqNet, err := NewNetwork(g, panicProtocol{vertex: -1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer seqNet.Close()
	if _, err := seqNet.Partition(0, 10); err == nil || !strings.Contains(err.Error(), "flat kernels") {
		t.Fatalf("protocol without flat kernels accepted: %v", err)
	}

	if _, err := flat(WithNoise(Noise{PLoss: 0.2})).Partition(0, 10); err == nil {
		t.Fatal("noisy network accepted")
	}
	if _, err := flat(WithSleep(Sleep{P: 0.1})).Partition(0, 10); err == nil {
		t.Fatal("sleepy network accepted")
	}

	closed := flat()
	closed.Close()
	if _, err := closed.Partition(0, 10); err == nil {
		t.Fatal("closed network accepted")
	}
}

// TestPartitionPanicContainment pins the poisoning contract: a kernel
// panic inside a range pass surfaces as *RunError and poisons the
// network for every later call, like the engines.
func TestPartitionPanicContainment(t *testing.T) {
	g := graph.Cycle(64)
	net, err := NewNetwork(g, flatPanicProtocol{round: 1, phase: "emit"}, 1, WithEngine(Flat))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	p, err := net.Partition(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	p.EnableSparse()
	if _, err := p.EmitLocalSparse(); err == nil {
		t.Fatal("injected panic not surfaced")
	} else if rerr, ok := err.(*RunError); !ok || rerr.Phase != "emit" {
		t.Fatalf("emit fault surfaced as %T (%v), want *RunError{Phase: emit}", err, err)
	}
	if _, err := p.UpdateLocalSparse(); err == nil {
		t.Fatal("poisoned network still updating")
	}
	if _, _, err := net.ExportRangeState(0, 32); err == nil {
		t.Fatal("poisoned network still exporting state")
	}
}
