package beep

import (
	"testing"

	"repro/internal/graph"
)

// TestWithWorkersValidation covers the WithWorkers option contract:
// negative counts are a construction error, zero means "pick for me",
// explicit counts are honored by FlatParallel (up to the 64-vertex
// stripe granularity) and ignored by the single-goroutine engines.
func TestWithWorkersValidation(t *testing.T) {
	g := graph.Cycle(200)

	if _, err := NewNetwork(g, xoverProtocol{channels: 1}, 1, WithWorkers(-1)); err == nil {
		t.Fatal("negative WithWorkers accepted")
	}

	// Single-goroutine engines: no pool regardless of the requested
	// count.
	for _, e := range []Engine{Sequential, Flat} {
		net, err := NewNetwork(g, coinKernels, 1, WithEngine(e), WithWorkers(8))
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if net.workers != nil {
			t.Fatalf("%v: sequential engine built a worker pool", e)
		}
		net.Close()
	}

	// FlatParallel: the pool exists and never exceeds the request.
	for _, want := range []int{1, 2, 3, 999} {
		net, err := NewNetwork(g, coinKernels, 1, WithEngine(FlatParallel), WithWorkers(want))
		if err != nil {
			t.Fatalf("w%d: %v", want, err)
		}
		if net.workers == nil {
			t.Fatalf("w%d: no worker pool", want)
		}
		if got := len(net.workers.shards); got > want {
			t.Fatalf("w%d: %d shards exceed the requested worker count", want, got)
		}
		if len(net.workers.flat) != len(net.workers.shards) {
			t.Fatalf("flat worker state count %d != shard count %d",
				len(net.workers.flat), len(net.workers.shards))
		}
		// Stripe ownership: every shard boundary except the last must
		// be 64-aligned, the word-disjointness contract of the pack and
		// merge phases.
		for i, sh := range net.workers.shards {
			if sh[0]&63 != 0 {
				t.Fatalf("shard %d starts at unaligned vertex %d", i, sh[0])
			}
			if i < len(net.workers.shards)-1 && sh[1]&63 != 0 {
				t.Fatalf("shard %d ends at unaligned vertex %d", i, sh[1])
			}
		}
		net.Close()
	}

	// Shards are padded to 64 vertices even when the request would
	// split a small network finer: 16 vertices on 2 workers is one
	// stripe.
	net, err := NewNetwork(graph.Cycle(16), coinKernels, 1, WithEngine(FlatParallel), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := net.workers.shards; len(got) != 1 || got[0] != [2]int{0, 16} {
		t.Fatalf("16 vertices on 2 workers built shards %v, want [[0 16]]", got)
	}
	net.Close()
}
