// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of timestamped
// events. Events scheduled for the same instant fire in the order they were
// scheduled, which makes simulations bit-reproducible for a fixed seed.
package sim

import "time"

// event is a scheduled callback. Every event is engine-owned and comes
// from the engine's free list: it is never handed to callers (a Timer
// holds one, but drops its reference before the event is recycled), so
// the engine recycles it as soon as it pops.
type event struct {
	at  time.Duration
	seq uint64
	// fn(arg) runs when the event fires; a plain function taking its
	// context through arg needs no per-call closure allocation.
	fn        func(any)
	arg       any
	cancelled bool
	// next links the engine's free list.
	next *event
}
