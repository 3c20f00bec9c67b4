package beep

import (
	"errors"
	"fmt"
)

// RunError is the typed, contained form of a machine panic: when a
// vertex's Emit or Update panics inside an engine, the engine recovers,
// records which vertex blew up in which phase of which round, and
// surfaces this error instead of tearing down the process. The pool
// workers of a striped flat round recover *before* joining the
// sense-reversing barrier, so a panicking vertex can never orphan the
// barrier or deadlock its sibling stripes — the coordinator observes
// the error after the phase completes on every stripe.
//
// A network that produced a RunError is poisoned: its state is
// partially updated (the panicking phase stopped mid-stripe), so every
// subsequent TryStep returns the same error and Step panics with it.
// Close remains safe. Other networks in the process — including ones
// sharing the protocol value — are unaffected.
type RunError struct {
	// Vertex is the vertex whose machine panicked, or -1 when the panic
	// escaped a flat range kernel, which processes its range as one
	// slab and cannot attribute the failure to a single vertex.
	Vertex int
	// Round is the 1-based round that was being executed.
	Round int
	// Phase names the engine phase ("emit" or "update").
	Phase string
	// Engine is the engine that contained the panic.
	Engine Engine
	// Recovered is the value the machine panicked with.
	Recovered any
	// Stack is the goroutine stack captured at recovery time.
	Stack []byte
}

// Error formats the failure; the stack is available via the field for
// callers that want to log it.
func (e *RunError) Error() string {
	if e.Vertex < 0 {
		return fmt.Sprintf("beep: flat %s kernel panicked in round %d on %s engine: %v",
			e.Phase, e.Round, e.Engine, e.Recovered)
	}
	return fmt.Sprintf("beep: machine of vertex %d panicked in %s phase of round %d on %s engine: %v",
		e.Vertex, e.Phase, e.Round, e.Engine, e.Recovered)
}

// ErrClosed reports a TryStep on a network after Close.
var ErrClosed = errors.New("beep: Step on closed Network (Close is terminal)")
