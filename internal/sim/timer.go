package sim

import "time"

// Timer is a reusable one-shot timer, and the only cancellable form of
// event. Protocol code that re-arms or cancels a deadline (the MAC
// contention timer, C-ARQ's per-reception AP timeout, beacons) holds one
// Timer per deadline, so arming costs neither an event nor a closure
// allocation after warm-up.
//
// A Timer is single-owner and not safe for concurrent use, like the engine
// it belongs to. The zero value is not useful; create timers with NewTimer.
type Timer struct {
	eng *Engine
	fn  func()
	// ev is the pending event, nil while the timer is idle. The reference
	// is dropped (timerFire, Stop) before the engine recycles the event,
	// so the timer can never observe a recycled event.
	ev *event
}

// NewTimer returns an idle timer that runs fn each time it expires.
func (e *Engine) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil callback")
	}
	return &Timer{eng: e, fn: fn}
}

// timerFire is the event callback shared by every Timer.
func timerFire(arg any) {
	t := arg.(*Timer)
	t.ev = nil
	t.fn()
}

// Reset arms the timer to fire after delay, cancelling any pending firing
// first. A negative delay is treated as zero.
func (t *Timer) Reset(delay time.Duration) {
	t.Stop()
	if delay < 0 {
		delay = 0
	}
	t.ev = t.eng.schedule(t.eng.now+delay, timerFire, t)
}

// Stop cancels the pending firing, if any. It reports whether a firing was
// actually prevented (false when the timer was idle).
func (t *Timer) Stop() bool {
	if t.ev == nil {
		return false
	}
	t.eng.cancel(t.ev)
	t.ev = nil
	return true
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.ev != nil }
