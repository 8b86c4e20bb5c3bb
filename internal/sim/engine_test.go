package sim

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := New()
	if got := e.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAdvancesClock(t *testing.T) {
	e := New()
	var at time.Duration = -1
	e.Schedule(5*time.Second, func() { at = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 5*time.Second {
		t.Fatalf("callback ran at %v, want 5s", at)
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("Now() = %v after run, want 5s", e.Now())
	}
}

func TestEventsFireInTimestampOrder(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(3*time.Second, func() { order = append(order, 3) })
	e.Schedule(1*time.Second, func() { order = append(order, 1) })
	e.Schedule(2*time.Second, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 10 {
		t.Fatalf("got %d events, want 10", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestNegativeDelayClampedToZero(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(time.Second, func() {
		e.Schedule(-time.Minute, func() { fired = true })
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if e.Now() != time.Second {
		t.Fatalf("Now() = %v, want 1s", e.Now())
	}
}

func TestScheduleNilCallbackPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	e.Schedule(time.Second, nil)
}

func TestCancelPreventsFiring(t *testing.T) {
	e := New()
	fired := false
	tm := e.NewTimer(func() { fired = true })
	tm.Reset(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop on armed timer returned false")
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("stopped timer fired")
	}
	if st := e.Stats(); st.Cancelled != 1 || st.Processed != 0 {
		t.Fatalf("cancelled/processed = %d/%d, want 1/0", st.Cancelled, st.Processed)
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	e := New()
	tm := e.NewTimer(func() {})
	tm.Reset(time.Second)
	if !tm.Stop() {
		t.Fatal("first Stop returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	if e.Stats().Cancelled != 1 {
		t.Fatalf("Cancelled = %d after a repeated Stop, want 1", e.Stats().Cancelled)
	}
}

func TestCancelAfterFireReturnsFalse(t *testing.T) {
	e := New()
	fired := false
	tm := e.NewTimer(func() { fired = true })
	tm.Reset(time.Second)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("timer did not fire")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
	}
	if e.Stats().Cancelled != 0 {
		t.Fatalf("Cancelled = %d after a late Stop, want 0", e.Stats().Cancelled)
	}
}

func TestCancelIdleTimerSafe(t *testing.T) {
	e := New()
	tm := e.NewTimer(func() {})
	if tm.Stop() {
		t.Fatal("Stop on a never-armed timer returned true")
	}
	if tm.Pending() || e.Pending() != 0 || e.Stats().Cancelled != 0 {
		t.Fatal("never-armed timer left state behind")
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := New()
	var count int
	for i := 1; i <= 10; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	if err := e.Run(); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("executed %d events before stop, want 3", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("Pending() = %d, want 7", e.Pending())
	}
}

// TestPendingExcludesCancelled is the regression test for the live-event
// count: stopped timers' events sit in the queue until lazily popped, but
// Pending must not count them.
func TestPendingExcludesCancelled(t *testing.T) {
	e := New()
	tms := make([]*Timer, 5)
	for i := range tms {
		tms[i] = e.NewTimer(func() {})
		tms[i].Reset(time.Duration(i+1) * time.Second)
	}
	if e.Pending() != 5 {
		t.Fatalf("Pending() = %d, want 5", e.Pending())
	}
	tms[1].Stop()
	tms[3].Stop()
	if e.Pending() != 3 {
		t.Fatalf("Pending() after two stops = %d, want 3", e.Pending())
	}
	// Stopping twice must not double-count.
	tms[1].Stop()
	if e.Pending() != 3 {
		t.Fatalf("Pending() after re-stop = %d, want 3", e.Pending())
	}
	// Stepping over a cancelled event keeps the count consistent.
	if !e.Step() { // runs the live 1 s event
		t.Fatal("Step found no event")
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() after first step = %d, want 2", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() after drain = %d, want 0", e.Pending())
	}
	// Stopping a timer that already fired changes nothing.
	tms[0].Stop()
	if e.Pending() != 0 || e.Stats().Cancelled != 2 {
		t.Fatalf("after post-fire stop: pending %d, cancelled %d, want 0, 2", e.Pending(), e.Stats().Cancelled)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := New()
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		d := d * time.Second
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	if err := e.RunUntil(3 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", e.Now())
	}
	// Remaining events still fire on a later run.
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	e := New()
	if err := e.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if e.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want 10s", e.Now())
	}
}

func TestEventChaining(t *testing.T) {
	// An event scheduling follow-up events models protocol timers; the
	// chain must execute with correct timestamps.
	e := New()
	var times []time.Duration
	var tick func()
	tick = func() {
		times = append(times, e.Now())
		if len(times) < 5 {
			e.Schedule(100*time.Millisecond, tick)
		}
	}
	e.Schedule(100*time.Millisecond, tick)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, at := range times {
		want := time.Duration(i+1) * 100 * time.Millisecond
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestProcessedCountsLiveEventsOnly(t *testing.T) {
	e := New()
	e.Schedule(time.Second, func() {})
	tm := e.NewTimer(func() {})
	tm.Reset(2 * time.Second)
	tm.Stop()
	e.Schedule(3*time.Second, func() {})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Processed() != 2 {
		t.Fatalf("Processed() = %d, want 2", e.Processed())
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	// Property: for any batch of random delays, execution timestamps are
	// non-decreasing and equal-time events preserve scheduling order.
	check := func(delaysMs []uint16) bool {
		if len(delaysMs) == 0 {
			return true
		}
		e := New()
		type rec struct {
			at  time.Duration
			seq int
		}
		var recs []rec
		for i, ms := range delaysMs {
			i := i
			e.Schedule(time.Duration(ms)*time.Millisecond, func() {
				recs = append(recs, rec{e.Now(), i})
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(recs) != len(delaysMs) {
			return false
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].at < recs[i-1].at {
				return false
			}
			if recs[i].at == recs[i-1].at && recs[i].seq < recs[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueHeapProperty(t *testing.T) {
	// Property: popping a randomly filled queue yields events sorted by
	// (time, seq).
	check := func(times []uint32) bool {
		var q eventQueue
		for i, ts := range times {
			q.Push(&event{at: time.Duration(ts), seq: uint64(i)})
		}
		var popped []*event
		for {
			ev := q.Pop()
			if ev == nil {
				break
			}
			popped = append(popped, ev)
		}
		if len(popped) != len(times) {
			return false
		}
		return sort.SliceIsSorted(popped, func(i, j int) bool {
			if popped[i].at != popped[j].at {
				return popped[i].at < popped[j].at
			}
			return popped[i].seq < popped[j].seq
		})
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQueuePopEmpty(t *testing.T) {
	var q eventQueue
	if q.Pop() != nil {
		t.Fatal("Pop on empty queue != nil")
	}
	if q.Peek() != nil {
		t.Fatal("Peek on empty queue != nil")
	}
}

func TestDeterministicReplay(t *testing.T) {
	// Two engines running the same randomized workload must produce
	// identical execution traces.
	run := func(seed int64) []time.Duration {
		e := New()
		rng := Stream(seed, "workload")
		var trace []time.Duration
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, e.Now())
			if depth >= 4 {
				return
			}
			n := rng.Intn(3)
			for i := 0; i < n; i++ {
				d := time.Duration(rng.Intn(1000)) * time.Millisecond
				e.Schedule(d, func() { spawn(depth + 1) })
			}
		}
		for i := 0; i < 5; i++ {
			e.Schedule(time.Duration(i)*time.Second, func() { spawn(0) })
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestStreamIndependence(t *testing.T) {
	a := Stream(1, "alpha")
	b := Stream(1, "beta")
	a2 := Stream(1, "alpha")
	collide := 0
	for i := 0; i < 100; i++ {
		va, vb, va2 := a.Uint64(), b.Uint64(), a2.Uint64()
		if va != va2 {
			t.Fatal("same (seed,name) stream diverged")
		}
		if va == vb {
			collide++
		}
	}
	if collide > 0 {
		t.Fatalf("streams alpha/beta collided %d times", collide)
	}
}

func TestNestedRunPanics(t *testing.T) {
	e := New()
	e.Schedule(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("nested Run did not panic")
			}
		}()
		_ = e.Run()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.Schedule(time.Duration(j%97)*time.Millisecond, func() {})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEventChain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 10000 {
				e.Schedule(time.Microsecond, tick)
			}
		}
		e.Schedule(0, tick)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEventAccountingIdentity drives a randomized mix of Schedule,
// ScheduleCall, timer resets and stops, repeated and late stops (of
// timers already stopped or fired) and horizon-bounded runs, and checks
// that every scheduled event is accounted for exactly once: processed,
// cancelled or still pending.
func TestEventAccountingIdentity(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		e := New()
		rng := Stream(seed, "identity")
		// shots are one-shot timers, armed once and never re-armed, so a
		// Stop may hit a live, fired or already stopped timer.
		var shots []*Timer
		var timers []*Timer
		check := func(where string) {
			t.Helper()
			st := e.Stats()
			if st.Scheduled != st.Processed+st.Cancelled+uint64(e.Pending()) {
				t.Fatalf("seed %d, %s: scheduled %d != processed %d + cancelled %d + pending %d",
					seed, where, st.Scheduled, st.Processed, st.Cancelled, e.Pending())
			}
		}
		var act func()
		act = func() {
			d := time.Duration(rng.Intn(500)) * time.Millisecond
			switch rng.Intn(6) {
			case 0:
				tm := e.NewTimer(func() {})
				tm.Reset(d)
				shots = append(shots, tm)
			case 1:
				e.ScheduleCall(d, func(any) {}, nil)
			case 2:
				if len(shots) > 0 {
					shots[rng.Intn(len(shots))].Stop()
				}
			case 3:
				if len(timers) == 0 || rng.Intn(3) == 0 {
					timers = append(timers, e.NewTimer(func() {}))
				}
				timers[rng.Intn(len(timers))].Reset(d)
			case 4:
				if len(timers) > 0 {
					timers[rng.Intn(len(timers))].Stop()
				}
			case 5:
				if rng.Intn(2) == 0 {
					e.Schedule(d, act)
				} else {
					e.ScheduleCall(d, func(any) { act() }, nil)
				}
			}
		}
		for step := 0; step < 400; step++ {
			act()
			if rng.Intn(20) == 0 {
				if err := e.RunUntil(e.Now() + time.Duration(rng.Intn(300))*time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
			check("after step")
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		check("after drain")
		if st := e.Stats(); e.Pending() != 0 || st.Cancelled == 0 {
			t.Fatalf("seed %d: drained with %d pending, %d cancelled", seed, e.Pending(), st.Cancelled)
		}
	}
}

// TestScheduleStoredFuncAllocationFree pins the pooled Schedule path: a
// func value boxes into the event's arg without allocating, so re-arming
// with a stored func allocates nothing once the free list is warm.
func TestScheduleStoredFuncAllocationFree(t *testing.T) {
	e := New()
	var tick func()
	tick = func() {}
	e.Schedule(time.Millisecond, tick) // warm the free list
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.Schedule(time.Millisecond, tick)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("re-arming a stored func allocated %.1f times per run", allocs)
	}
}
