package beep

import (
	"fmt"
	"math/bits"
)

// This file exports the partition hooks of the distributed engine
// (internal/dist): a Partition executes the flat kernels for one
// contiguous vertex range [lo, hi) of a full Network, with the signal
// exchange between ranges left to the caller. A distributed worker
// constructs the complete network (graph, machines, streams — state is
// cheap, the rounds are the cost), then steps only its own range; the
// per-vertex private streams guarantee that the union of the ranges
// reproduces the single-process execution bit for bit, exactly the
// determinism argument of the flat engine's stripes (see flat.go). The
// round protocol is the delta exchange of partition_sparse.go.
//
// Ranges need not be 64-aligned: each partition packs only its own
// vertices' bits (foreign bits of shared edge words stay zero), so the
// coordinator can OR word uploads from adjacent partitions into the
// exact global sender bitset.
//
// Partitioned execution excludes the fault models that consume shared
// sequential randomness (noise, sleep, adversaries): their draw order is
// a whole-network sequence that vertex ranges cannot consume
// independently. Partition refuses to construct when any of them is
// enabled.

// Partition is a [lo, hi) execution window over a Network, created by
// Network.Partition. It is not safe for concurrent use.
type Partition struct {
	net    *Network
	lo, hi int
	// words are the coordinator-merged GLOBAL per-channel sender
	// bitsets, full word-length arrays maintained by ApplyDeltaWord;
	// UpdateLocalSparse gathers heard signals from them.
	words  [2][]uint64
	env    FlatEnv
	rowBuf []int32
	// sparse, when non-nil, holds the delta-round state installed by
	// EnableSparse (see partition_sparse.go).
	sparse *partSparse
	// ckDirty marks the slab words of [lo, hi) whose vertex state
	// (machine or stream) may have moved since the last
	// ExportStateDelta: one bit per slab word over the global word
	// index space, the same shape as the sparse masks. ckDirtyAll is
	// the conservative everything-dirty flag, set at creation and by any
	// restore (see MarkAllStateDirty) — the partition-side twin of the
	// Network's dirtyState invariant.
	ckDirty    []uint64
	ckDirtyAll bool
}

// Partition creates the execution window for vertices [lo, hi). It
// requires the flat kernels (like the Flat engine) and rejects networks
// with noise, sleep or adversaries enabled: those draw from shared
// sequential streams that partitions cannot split.
func (n *Network) Partition(lo, hi int) (*Partition, error) {
	if n.closed {
		return nil, fmt.Errorf("beep: Partition on closed Network")
	}
	if lo < 0 || hi < lo || hi > n.N() {
		return nil, fmt.Errorf("beep: partition range [%d, %d) out of [0, %d)", lo, hi, n.N())
	}
	if n.flatOps == nil {
		return nil, fmt.Errorf("beep: Partition requires flat kernels, but %T's bulk state (%T) does not implement FlatProtocol", n.proto, n.bulk)
	}
	if n.noise.enabled() || n.sleep.enabled() || n.advCount > 0 {
		return nil, fmt.Errorf("beep: Partition with noise/sleep/adversaries enabled: fault-model draws are a whole-network sequence")
	}
	p := &Partition{net: n, lo: lo, hi: hi, ckDirtyAll: true}
	nw := (n.N() + 63) / 64
	p.ckDirty = make([]uint64, (nw+63)>>6)
	for c := 0; c < n.channels; c++ {
		p.words[c] = make([]uint64, nw)
	}
	if n.csr == nil {
		p.rowBuf = make([]int32, n.g.MaxDegree())
	}
	return p, nil
}

// Range returns the partition's vertex window.
func (p *Partition) Range() (lo, hi int) { return p.lo, p.hi }

// Channels returns the protocol's channel count (1 or 2).
func (p *Partition) Channels() int { return p.net.channels }

// Signals returns the network's sent and heard arrays. Only the
// partition's own range is maintained by EmitLocalSparse and
// UpdateLocalSparse; foreign entries are stale. The slices alias
// network storage.
func (p *Partition) Signals() (sent, heard []Signal) { return p.net.sent, p.net.heard }

// ExportRangeState returns the machine and stream states of vertices
// [lo, hi), the per-partition slice of a Checkpoint: a distributed
// coordinator assembles the full checkpoint from these. It fails on a
// poisoned network (the state is not a round boundary) or machines
// without StateCodec.
func (n *Network) ExportRangeState(lo, hi int) (machines [][]int64, streams [][4]uint64, err error) {
	if n.failed != nil {
		return nil, nil, fmt.Errorf("beep: state export of failed network: %w", n.failed)
	}
	if lo < 0 || hi < lo || hi > n.N() {
		return nil, nil, fmt.Errorf("beep: state export range [%d, %d) out of [0, %d)", lo, hi, n.N())
	}
	machines = make([][]int64, hi-lo)
	streams = make([][4]uint64, hi-lo)
	for v := lo; v < hi; v++ {
		codec, ok := n.machines[v].(StateCodec)
		if !ok {
			return nil, nil, fmt.Errorf("beep: machine %T of vertex %d does not support checkpointing", n.machines[v], v)
		}
		machines[v-lo] = codec.EncodeState()
		streams[v-lo] = n.srcs[v].State()
	}
	return machines, streams, nil
}

// MarkAllStateDirty saturates the partition's state-delta baseline:
// the next ExportStateDelta exports the whole range. Callers invoke it
// after Network.Restore (the restored state invalidates the
// incremental baseline), mirroring the ResetSparse contract for the
// signal exchange.
func (p *Partition) MarkAllStateDirty() { p.ckDirtyAll = true }

// DirtyStateAll reports whether the next ExportStateDelta would cover
// the whole range.
func (p *Partition) DirtyStateAll() bool { return p.ckDirtyAll }

// DirtyStateWords returns the number of own slab words the next
// ExportStateDelta would cover.
func (p *Partition) DirtyStateWords() int {
	if p.lo == p.hi {
		return 0
	}
	if p.ckDirtyAll {
		return (p.hi-1)>>6 - p.lo>>6 + 1
	}
	cnt := 0
	for _, m := range p.ckDirty {
		cnt += bits.OnesCount64(m)
	}
	return cnt
}

// ExportStateDelta exports the machine and stream states of every
// vertex whose slab word was dirtied since the previous export (the
// whole range after creation or MarkAllStateDirty),
// then rebaselines: the next export accumulates from here. Verts is
// ascending and bounded to [lo, hi) — boundary words shared with an
// adjacent partition export disjoint vertex sets, so a coordinator can
// splice deltas from all partitions without ownership conflicts. On
// error (poisoned network, non-checkpointable machine) the baseline is
// left untouched.
func (p *Partition) ExportStateDelta() (verts []int32, machines [][]int64, streams [][4]uint64, err error) {
	n := p.net
	if n.failed != nil {
		return nil, nil, nil, fmt.Errorf("beep: state export of failed network: %w", n.failed)
	}
	appendWord := func(wi int) error {
		lo, hi := wi<<6, wi<<6+64
		if lo < p.lo {
			lo = p.lo
		}
		if hi > p.hi {
			hi = p.hi
		}
		for v := lo; v < hi; v++ {
			codec, ok := n.machines[v].(StateCodec)
			if !ok {
				return fmt.Errorf("beep: machine %T of vertex %d does not support checkpointing", n.machines[v], v)
			}
			verts = append(verts, int32(v))
			machines = append(machines, codec.EncodeState())
			streams = append(streams, n.srcs[v].State())
		}
		return nil
	}
	if p.ckDirtyAll {
		if p.lo < p.hi {
			for wi := p.lo >> 6; wi <= (p.hi-1)>>6; wi++ {
				if err := appendWord(wi); err != nil {
					return nil, nil, nil, err
				}
			}
		}
	} else {
		for mi, m := range p.ckDirty {
			for m != 0 {
				b := bits.TrailingZeros64(m)
				m &= m - 1
				if err := appendWord(mi<<6 + b); err != nil {
					return nil, nil, nil, err
				}
			}
		}
	}
	clearMask(p.ckDirty)
	p.ckDirtyAll = false
	return verts, machines, streams, nil
}
