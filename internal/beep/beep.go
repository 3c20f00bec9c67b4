// Package beep implements the full-duplex beeping communication model of
// Cornejo and Kuhn (DISC 2010), the substrate of the paper: an anonymous
// network with synchronous rounds in which, each round, every vertex may
// transmit a signal (beep) on one or more channels and then learns, per
// channel, only whether at least one neighbor beeped on it.
//
// Properties of the model as implemented here:
//
//   - Full duplex (collision detection): a beeping vertex still listens in
//     the same round. A vertex never hears its own beep, only neighbors'.
//   - Collisions are invisible: hearing is the OR over neighbors, with no
//     count and no sender identity.
//   - Anonymous: protocols receive no vertex identifier; the integer ids
//     used by the simulator are bookkeeping only.
//   - One or two channels (Signal bits), for Algorithm 1 and Algorithm 2
//     of the paper respectively.
//
// Protocols are per-vertex state machines (Machine) created by a Protocol
// factory. Rounds run on one of two strategies that are trace-equivalent
// for a fixed seed: the reference per-machine interface loop
// (Sequential with WithFlatKernels(false), and Sequential for protocols
// without kernels), and the flat engine, which runs range kernels over
// structure-of-arrays slabs on a number of vertex stripes (one for Flat
// and kernel-capable Sequential, which upgrades transparently, run
// inline; one per pool worker for FlatParallel).
package beep

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Signal is the set of channels beeped in a round, as a bitmask.
// The zero Signal is silence.
type Signal uint8

const (
	// Silent is the empty signal.
	Silent Signal = 0
	// Chan1 is the first (and in Algorithm 1, only) beeping channel.
	Chan1 Signal = 1 << 0
	// Chan2 is the second beeping channel used by Algorithm 2.
	Chan2 Signal = 1 << 1
)

// Has reports whether s includes channel c.
func (s Signal) Has(c Signal) bool { return s&c != 0 }

// String renders a signal for traces: "-", "1", "2" or "12".
func (s Signal) String() string {
	switch s & (Chan1 | Chan2) {
	case Silent:
		return "-"
	case Chan1:
		return "1"
	case Chan2:
		return "2"
	default:
		return "12"
	}
}

// Machine is the per-vertex state machine of a beeping protocol. A round
// proceeds as Emit on every vertex, signal delivery, then Update on every
// vertex. Machines must not retain or inspect anything about the network
// beyond what Update delivers: that is the anonymity of the model.
type Machine interface {
	// Emit decides the signal to transmit this round, consuming
	// randomness only from src (the vertex's private stream).
	Emit(src *rng.Source) Signal

	// Update applies the state transition given the signal this vertex
	// sent and the OR of the signals its neighbors sent.
	Update(sent, heard Signal)

	// Randomize sets the machine to a uniformly random state of its state
	// space. It models a transient RAM fault (adversarial corruption) and
	// arbitrary initialization: self-stabilizing protocols must converge
	// from any reachable assignment of Randomize.
	Randomize(src *rng.Source)
}

// Protocol creates the machine for each vertex. NewMachine may read the
// graph to derive the vertex's *knowledge* (for example an upper bound on
// its own degree) — exactly the per-vertex topology knowledge the paper's
// variants grant — but the machine itself never sees the graph. The
// graph arrives as the backend-agnostic graph.Topology, so protocols
// instantiate identically on materialized, compact and implicit graphs.
type Protocol interface {
	// NewMachine returns the initial machine for vertex v of g.
	NewMachine(v int, g graph.Topology) Machine
	// Channels returns the number of beeping channels the protocol uses
	// (1 or 2).
	Channels() int
}

// BatchProtocol is an optional Protocol extension for protocols that can
// build all machines of a network in one call. Implementations may back
// the machines with shared flat storage and return an opaque bulk-state
// handle, which the Network exposes via BulkState; analysts (e.g. the
// stabilization detector in internal/core) type-assert the handle to a
// bulk accessor and read whole-network state without per-vertex
// interface dispatch. Machines returned by NewMachines must behave
// exactly like the ones NewMachine would build, so the fast path is
// observationally identical.
type BatchProtocol interface {
	Protocol
	// NewMachines returns one machine per vertex of g (in vertex order)
	// and an optional bulk-state handle (may be nil).
	NewMachines(g graph.Topology) (ms []Machine, bulk any)
}

// Engine selects the execution strategy for rounds.
type Engine int

const (
	// Sequential executes rounds in a single goroutine. It runs the flat
	// kernels whenever the protocol provides them and WithFlatKernels
	// was not disabled; otherwise it runs the reference per-machine
	// interface loop, the semantics every other path is pinned against.
	Sequential Engine = iota + 1
	// Flat executes rounds over structure-of-arrays slabs with range
	// kernels and bitset beep delivery, as one stripe on the calling
	// goroutine (see flat.go). It requires the protocol's bulk state to
	// implement FlatProtocol.
	Flat
	// FlatParallel is the same flat round with one 64-vertex-aligned
	// stripe per pool worker (WithWorkers, default GOMAXPROCS): striped
	// emit/update kernels and sender packing, and per-stripe scatter
	// masks merged by word-range ownership for delivery (see flat.go).
	// A network that gets one stripe runs inline, exactly like Flat.
	// Like Flat it requires FlatProtocol kernels, and it is
	// trace-equivalent to the sequential reference for a fixed seed.
	FlatParallel
)

// String names the engine for tables and errors.
func (e Engine) String() string {
	switch e {
	case Sequential:
		return "sequential"
	case Flat:
		return "flat"
	case FlatParallel:
		return "flatparallel"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// ParseEngine maps an engine name (as produced by Engine.String) back to
// the Engine value, for command-line flags. The retired interface-loop
// pool engines ("parallel", "pervertex") are rejected with a message
// naming their replacement.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "sequential":
		return Sequential, nil
	case "flat":
		return Flat, nil
	case "flatparallel":
		return FlatParallel, nil
	case "parallel", "pervertex":
		return 0, fmt.Errorf("beep: engine %q was removed; use flatparallel (same trace, flat kernels striped over workers)", name)
	default:
		return 0, fmt.Errorf("beep: unknown engine %q (want sequential, flat or flatparallel)", name)
	}
}
