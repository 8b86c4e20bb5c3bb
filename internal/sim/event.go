// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of timestamped
// events. Events scheduled for the same instant fire in the order they were
// scheduled, which makes simulations bit-reproducible for a fixed seed.
// Protocol code is written against the small Context interface so it can be
// unit-tested with a scripted clock.
package sim

import "time"

// Event is a scheduled callback. It is returned by Schedule/ScheduleAt so the
// caller can cancel it before it fires. The zero value is not useful; events
// are created by an Engine.
type Event struct {
	at  time.Duration
	seq uint64
	fn  func()
	// callFn/arg are the pooled-event form of fn: callFn(arg) runs with no
	// closure allocation. Exactly one of fn and callFn is set.
	callFn    func(any)
	arg       any
	cancelled bool
	fired     bool
	// pooled events are engine-owned: they are never handed to callers
	// (except through a Timer, which relinquishes its reference before the
	// event is recycled), so the engine returns them to its free list as
	// soon as they pop.
	pooled bool
	// next links the engine's free list.
	next *Event
	// eng is the owning engine; Cancel tells it so Pending can exclude
	// cancelled events that are still physically in the queue.
	eng *Engine
}

// At returns the virtual time at which the event fires (or fired).
func (ev *Event) At() time.Duration { return ev.at }

// Cancel prevents the event from firing. Cancelling an event that already
// fired or was already cancelled is a no-op. Cancel reports whether the event
// was live (i.e. this call actually prevented it from firing).
func (ev *Event) Cancel() bool {
	if ev == nil || ev.cancelled || ev.fired {
		return false
	}
	ev.cancelled = true
	ev.fn = nil
	ev.callFn = nil
	ev.arg = nil
	if ev.eng != nil {
		ev.eng.cancelledQueued++
		ev.eng.cancelled++
	}
	return true
}

// Cancelled reports whether Cancel was called before the event fired.
func (ev *Event) Cancelled() bool { return ev != nil && ev.cancelled }

// Fired reports whether the event's callback has run.
func (ev *Event) Fired() bool { return ev != nil && ev.fired }

// Context is the clock-and-timer interface protocol code depends on. An
// *Engine satisfies it; tests may provide scripted implementations.
type Context interface {
	// Now returns the current virtual time.
	Now() time.Duration
	// Schedule arranges for fn to run after delay. A negative delay is
	// treated as zero. The returned event may be cancelled.
	Schedule(delay time.Duration, fn func()) *Event
	// ScheduleCall is the pooled, non-cancellable form of Schedule: fn(arg)
	// runs after delay with no per-call Event or closure allocation.
	ScheduleCall(delay time.Duration, fn func(any), arg any)
	// NewTimer returns an idle reusable timer running fn on expiry.
	NewTimer(fn func()) *Timer
}
