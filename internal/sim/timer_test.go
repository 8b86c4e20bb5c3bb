package sim

import (
	"testing"
	"time"
)

func TestScheduleCallFiresInOrderWithScheduled(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(time.Second, func() { got = append(got, 1) })
	e.ScheduleCall(time.Second, func(arg any) { got = append(got, arg.(int)) }, 2)
	e.Schedule(time.Second, func() { got = append(got, 3) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("same-instant Schedule/ScheduleCall order = %v, want [1 2 3]", got)
	}
}

func TestScheduleCallRecyclesEvents(t *testing.T) {
	e := New()
	fired := 0
	var chain func(any)
	chain = func(any) {
		fired++
		if fired < 1000 {
			e.ScheduleCall(time.Millisecond, chain, nil)
		}
	}
	e.ScheduleCall(time.Millisecond, chain, nil)
	allocs := testing.AllocsPerRun(1, func() {
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if fired < 1000 {
		t.Fatalf("chain fired %d times", fired)
	}
	// One warm-up event may allocate; a fresh event per firing must not.
	if allocs > 10 {
		t.Fatalf("pooled event chain allocated %.0f times", allocs)
	}
}

func TestScheduleCallNegativeDelayClamped(t *testing.T) {
	e := New()
	e.Schedule(time.Second, func() {
		e.ScheduleCall(-time.Minute, func(any) {
			if e.Now() != time.Second {
				t.Fatalf("clamped pooled event fired at %v", e.Now())
			}
		}, nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleCallNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for nil pooled callback")
		}
	}()
	New().ScheduleCall(0, nil, nil)
}

func TestTimerResetAndFire(t *testing.T) {
	e := New()
	fired := 0
	tm := e.NewTimer(func() { fired++ })
	tm.Reset(time.Second)
	if !tm.Pending() {
		t.Fatal("armed timer not pending")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 || tm.Pending() {
		t.Fatalf("fired=%d pending=%v after run", fired, tm.Pending())
	}
}

func TestTimerResetReplacesPending(t *testing.T) {
	e := New()
	var at time.Duration
	tm := e.NewTimer(func() { at = e.Now() })
	tm.Reset(time.Second)
	tm.Reset(3 * time.Second) // re-arm before the first deadline
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 3*time.Second {
		t.Fatalf("timer fired at %v, want 3s (single firing at the latest Reset)", at)
	}
}

func TestTimerStop(t *testing.T) {
	e := New()
	tm := e.NewTimer(func() { t.Fatal("stopped timer fired") })
	tm.Reset(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop on armed timer reported idle")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported a prevented firing")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTimerRearmFromCallback(t *testing.T) {
	e := New()
	fired := 0
	var tm *Timer
	tm = e.NewTimer(func() {
		fired++
		if fired < 5 {
			tm.Reset(time.Second)
		}
	})
	tm.Reset(time.Second)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 5 {
		t.Fatalf("periodic timer fired %d times, want 5", fired)
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("clock %v after 5 one-second periods", e.Now())
	}
}

func TestTimerStopExcludedFromPending(t *testing.T) {
	e := New()
	tm := e.NewTimer(func() {})
	tm.Reset(time.Second)
	e.Schedule(2*time.Second, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	tm.Stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after Stop, want 1", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Processed() != 1 {
		t.Fatalf("Processed = %d, want 1 (stopped timer must not count)", e.Processed())
	}
}

func TestArmSeedForks(t *testing.T) {
	if ArmSeed(42, "") != 42 {
		t.Fatal("empty arm must leave the seed unchanged")
	}
	a, b := ArmSeed(42, "coop"), ArmSeed(42, "nocoop")
	if a == 42 || b == 42 || a == b {
		t.Fatalf("arm seeds not distinct: root=42 coop=%d nocoop=%d", a, b)
	}
	if a != ArmSeed(42, "coop") {
		t.Fatal("ArmSeed not deterministic")
	}
}
