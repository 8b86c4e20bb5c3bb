package sim

import (
	"errors"
	"time"
)

// ErrStopped is returned by Run when the simulation was halted by Stop
// before the event queue drained.
var ErrStopped = errors.New("sim: stopped")

// Engine is the discrete-event scheduler. It is single-threaded by design:
// all protocol logic runs inside event callbacks on the goroutine that calls
// Run, so simulations need no locking and are fully deterministic.
//
// The zero value is not ready to use; create engines with New.
type Engine struct {
	now     time.Duration
	queue   eventQueue
	seq     uint64
	stopReq bool
	running bool

	// processed counts events whose callbacks have run, for diagnostics.
	processed uint64
	// The remaining stat fields are plain counters on the single-threaded
	// engine, maintained unconditionally (an increment is cheaper than
	// any branch that would guard it) and read through Stats. They feed
	// the metrics layer but never influence scheduling, so they are
	// invisible to traces.
	scheduled uint64 // events accepted by Schedule/ScheduleCall/Timer.Reset
	poolHits  uint64 // schedules served from the free list
	recycled  uint64 // popped events returned to the free list
	cancelled uint64 // Timer.Stop calls that stopped a live event
	heapHW    int    // high-water mark of the queue length
	// cancelledQueued counts events that were cancelled but are still
	// physically in the queue (cancellation leaves them in place; the
	// pop path discards them lazily). Pending subtracts it so callers
	// see only live work.
	cancelledQueued int
	// free is the event free list. Every event recycles through it as it
	// pops, so steady-state hot paths (MAC transmission ends, AP ticks,
	// protocol timers, beacons) schedule without allocating.
	free *event
}

// New returns an Engine with the clock at zero and an empty queue.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of live events waiting in the queue.
// Cancelled events that have not been lazily discarded yet are excluded,
// so the count is exactly the number of callbacks still due to run.
func (e *Engine) Pending() int { return e.queue.Len() - e.cancelledQueued }

// Stats is a point-in-time copy of the engine's event-loop counters.
// Everything here is a count of things that happened — deterministic for
// a deterministic simulation — never a wall-clock measure.
type Stats struct {
	// Scheduled counts events accepted by Schedule, ScheduleCall and
	// Timer.Reset; Processed counts events whose callbacks ran.
	Scheduled uint64
	Processed uint64
	// PoolHits counts schedules served from the free list (the
	// steady-state hot path); Recycled counts popped events returned to
	// it. Scheduled-PoolHits is the number of event allocations.
	PoolHits uint64
	Recycled uint64
	// Cancelled counts Timer.Stop calls that stopped a live event. Every
	// scheduled event is processed, cancelled or still pending, so
	// Scheduled == Processed + Cancelled + Pending() at any instant.
	Cancelled uint64
	// HeapHighWater is the deepest the event queue ever grew, the
	// capacity measure for the queue's backing array.
	HeapHighWater int
}

// Stats returns the engine's counters so far. The engine is
// single-threaded; call it from the owning goroutine (typically after
// Run returns).
func (e *Engine) Stats() Stats {
	return Stats{
		Scheduled:     e.scheduled,
		Processed:     e.processed,
		PoolHits:      e.poolHits,
		Recycled:      e.recycled,
		Cancelled:     e.cancelled,
		HeapHighWater: e.heapHW,
	}
}

// Schedule arranges for fn to run after delay. Negative delays are clamped
// to zero, so the event fires at the current time but strictly after the
// callback that scheduled it returns. The event cannot be cancelled — use
// a Timer for that. A func value boxes into the event's arg without
// allocating, so re-arming with a stored func (not a fresh closure) is
// allocation-free after warm-up.
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	e.ScheduleCall(delay, callFunc, fn)
}

// callFunc is the event callback behind Schedule.
func callFunc(a any) { a.(func())() }

// ScheduleCall arranges for fn(arg) to run after delay, like Schedule.
// Because fn is a plain function taking its context through arg, hot paths
// avoid the per-call closure allocation (boxing a pointer-typed arg into
// the any is allocation-free). The event cannot be cancelled.
func (e *Engine) ScheduleCall(delay time.Duration, fn func(any), arg any) {
	if delay < 0 {
		delay = 0
	}
	e.schedule(e.now+delay, fn, arg)
}

// schedule queues fn(arg) at absolute time t on an event from the free
// list. It returns the event so Timer can track (and cancel) it; the event
// must never escape further.
func (e *Engine) schedule(t time.Duration, fn func(any), arg any) *event {
	if fn == nil {
		panic("sim: ScheduleCall with nil callback")
	}
	ev := e.free
	if ev != nil {
		e.free = ev.next
		e.poolHits++
	} else {
		ev = &event{}
	}
	*ev = event{at: t, seq: e.seq, fn: fn, arg: arg}
	e.seq++
	e.queue.Push(ev)
	e.scheduled++
	if l := e.queue.Len(); l > e.heapHW {
		e.heapHW = l
	}
	return ev
}

// cancel stops a queued live event. The event stays in the queue until it
// pops (cancellation is lazy), so Pending subtracts it meanwhile.
func (e *Engine) cancel(ev *event) {
	ev.cancelled = true
	ev.fn, ev.arg = nil, nil
	e.cancelledQueued++
	e.cancelled++
}

// recycle returns a popped event to the free list.
func (e *Engine) recycle(ev *event) {
	*ev = event{next: e.free}
	e.free = ev
	e.recycled++
}

// Stop requests that Run return after the currently executing event. It is
// safe to call from inside an event callback.
func (e *Engine) Stop() { e.stopReq = true }

// Step executes the next live event, advancing the clock to its timestamp.
// It reports whether an event was executed (false means the queue is empty).
func (e *Engine) Step() bool {
	for {
		ev := e.queue.Pop()
		if ev == nil {
			return false
		}
		if ev.cancelled {
			e.cancelledQueued--
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		e.processed++
		fn, arg := ev.fn, ev.arg
		// Recycle before the callback runs: the only live reference at
		// this point is ours (Timers drop theirs via timerFire, which is
		// the callback itself), and recycling first lets the callback's
		// own schedule reuse the slot immediately.
		e.recycle(ev)
		fn(arg)
		return true
	}
}

// Run executes events until the queue drains or Stop is called. It returns
// nil when the queue drained and ErrStopped when halted early.
func (e *Engine) Run() error {
	return e.RunUntil(-1)
}

// RunUntil executes events with timestamps <= horizon, then advances the
// clock to horizon. A negative horizon means "no horizon" (run to drain).
// Events strictly after the horizon remain queued. It returns ErrStopped if
// Stop halted the run early, nil otherwise.
func (e *Engine) RunUntil(horizon time.Duration) error {
	if e.running {
		panic("sim: nested Run")
	}
	e.running = true
	defer func() { e.running = false }()
	e.stopReq = false
	for {
		if e.stopReq {
			return ErrStopped
		}
		next := e.queue.Peek()
		if next == nil {
			break
		}
		if horizon >= 0 && next.at > horizon {
			break
		}
		e.Step()
	}
	if horizon >= 0 && e.now < horizon {
		e.now = horizon
	}
	return nil
}
