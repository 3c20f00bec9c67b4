package beep

import (
	"testing"

	"repro/internal/graph"
)

// TestWithWorkersValidation covers the WithWorkers option contract:
// negative counts are a construction error, zero means "pick for me",
// explicit counts are honored by FlatParallel as its stripe count (up
// to the 64-vertex stripe granularity) and ignored by the one-stripe
// engines. A network with one stripe runs inline: no worker pool, and
// the stripe's scatter target and neighbor scratch are the network's
// own.
func TestWithWorkersValidation(t *testing.T) {
	g := graph.Cycle(200)

	if _, err := NewNetwork(g, xoverProtocol{channels: 1}, 1, WithWorkers(-1)); err == nil {
		t.Fatal("negative WithWorkers accepted")
	}

	inline := func(t *testing.T, name string, net *Network) {
		t.Helper()
		if net.workers != nil {
			t.Fatalf("%s: one-stripe network built a worker pool", name)
		}
		if len(net.stripes) != 1 || net.stripes[0].lo != 0 || net.stripes[0].hi != net.N() {
			t.Fatalf("%s: stripes %v, want one [0, %d)", name, stripeRanges(net), net.N())
		}
		if net.stripes[0].scratch != &net.heardBits {
			t.Fatalf("%s: the single stripe scatters into private masks", name)
		}
	}

	// One-stripe engines regardless of the requested count, and
	// FlatParallel at w1.
	for _, e := range []Engine{Sequential, Flat} {
		net, err := NewNetwork(g, coinKernels, 1, WithEngine(e), WithWorkers(8))
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		inline(t, e.String(), net)
		net.Close()
	}
	net, err := NewNetwork(g, coinKernels, 1, WithEngine(FlatParallel), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	inline(t, "flatparallel-w1", net)
	net.Close()

	// FlatParallel with several stripes: a pool, never more stripes
	// than requested, 64-aligned ownership.
	for _, want := range []int{2, 3, 999} {
		net, err := NewNetwork(g, coinKernels, 1, WithEngine(FlatParallel), WithWorkers(want))
		if err != nil {
			t.Fatalf("w%d: %v", want, err)
		}
		if net.workers == nil {
			t.Fatalf("w%d: no worker pool", want)
		}
		if got := len(net.stripes); got > want || got < 2 {
			t.Fatalf("w%d: %d stripes, want 2..%d", want, got, want)
		}
		// Stripe ownership: every stripe boundary except the last must
		// be 64-aligned, the word-disjointness contract of the pack and
		// merge phases; the stripes tile [0, N).
		lo := 0
		for i, st := range net.stripes {
			if st.lo != lo || st.lo&63 != 0 {
				t.Fatalf("w%d: stripe %d starts at %d, want 64-aligned %d", want, i, st.lo, lo)
			}
			if i < len(net.stripes)-1 && st.hi&63 != 0 {
				t.Fatalf("w%d: stripe %d ends at unaligned vertex %d", want, i, st.hi)
			}
			if st.scratch == &net.heardBits {
				t.Fatalf("w%d: stripe %d scatters into the shared heard bitsets", want, i)
			}
			lo = st.hi
		}
		if lo != net.N() {
			t.Fatalf("w%d: stripes end at %d, want %d", want, lo, net.N())
		}
		net.Close()
	}

	// Stripes are padded to 64 vertices even when the request would
	// split a small network finer: 16 vertices on 2 workers is one
	// stripe, run inline.
	net, err = NewNetwork(graph.Cycle(16), coinKernels, 1, WithEngine(FlatParallel), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	inline(t, "16 vertices on 2 workers", net)
	net.Close()
}

// stripeRanges lists a network's stripe ranges for failure messages.
func stripeRanges(net *Network) [][2]int {
	var r [][2]int
	for _, st := range net.stripes {
		r = append(r, [2]int{st.lo, st.hi})
	}
	return r
}
