package faultpoint

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// disarm cleans the global registry state a test armed.
func disarm(t *testing.T) {
	t.Helper()
	t.Cleanup(DisarmAll)
}

// lookup returns the point called name, if it has been resolved.
func lookup(name string) (*Point, bool) {
	registry.Lock()
	defer registry.Unlock()
	p, ok := registry.points[name]
	return p, ok
}

// hitCount returns the matching calls counted since the last arming.
func (p *Point) hitCount() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits
}

// firedCount returns how many calls actually fired since the last arming.
func (p *Point) firedCount() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired
}

func TestDisarmedFiresNothing(t *testing.T) {
	disarm(t)
	p := New("test.disarmed")
	if err := p.FireKey(""); err != nil {
		t.Fatalf("disarmed Fire: %v", err)
	}
	if n, ok := p.ShortWrite("k"); ok {
		t.Fatalf("disarmed ShortWrite fired with cap %d", n)
	}
	// Armed but globally disabled: still silent.
	p.MustArm(Spec{Action: ActError})
	enabled.Store(false)
	if err := p.FireKey(""); err != nil {
		t.Fatalf("globally disabled Fire: %v", err)
	}
	if p.hitCount() != 0 {
		t.Fatalf("disabled point counted %d hits", p.hitCount())
	}
}

func TestErrorInjection(t *testing.T) {
	disarm(t)
	p := New("test.error")
	p.MustArm(Spec{Action: ActError, Msg: "boom"})
	err := p.FireKey("")
	if err == nil || !strings.Contains(err.Error(), "faultpoint test.error: boom") {
		t.Fatalf("Fire = %v, want injected boom", err)
	}
	if p.firedCount() != 1 {
		t.Fatalf("Fired = %d, want 1", p.firedCount())
	}
	p.disarm()
	if err := p.FireKey(""); err != nil {
		t.Fatalf("after Disarm: %v", err)
	}
}

func TestPanicInjection(t *testing.T) {
	disarm(t)
	p := New("test.panic")
	p.MustArm(Spec{Action: ActPanic})
	defer func() {
		v := recover()
		s, ok := v.(string)
		if !ok || !strings.Contains(s, "faultpoint test.panic: injected panic") {
			t.Fatalf("recover = %v, want injected panic", v)
		}
	}()
	p.FireKey("")
	t.Fatal("Fire did not panic")
}

func TestSleepInjection(t *testing.T) {
	disarm(t)
	p := New("test.sleep")
	p.MustArm(Spec{Action: ActSleep, Delay: 20 * time.Millisecond})
	start := time.Now()
	if err := p.FireKey(""); err != nil {
		t.Fatalf("Fire: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("slept %v, want >= 20ms", d)
	}
}

func TestShortWriteInjection(t *testing.T) {
	disarm(t)
	p := New("test.short")
	p.MustArm(Spec{Action: ActShortWrite, Bytes: 7})
	n, ok := p.ShortWrite("any")
	if !ok || n != 7 {
		t.Fatalf("ShortWrite = (%d, %v), want (7, true)", n, ok)
	}
	// A short-write arm never fires through the generic site.
	if err := p.FireKey(""); err != nil {
		t.Fatalf("Fire on short-write arm: %v", err)
	}
}

func TestHitSelector(t *testing.T) {
	disarm(t)
	p := New("test.hit")
	p.MustArm(Spec{Action: ActError, Hit: 3})
	for i := 1; i <= 5; i++ {
		err := p.FireKey("")
		if (i == 3) != (err != nil) {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	if p.hitCount() != 5 || p.firedCount() != 1 {
		t.Fatalf("hits/fired = %d/%d, want 5/1", p.hitCount(), p.firedCount())
	}
}

func TestKeySelector(t *testing.T) {
	disarm(t)
	p := New("test.key")
	p.MustArm(Spec{Action: ActError, Key: "b"})
	if err := p.FireKey("a"); err != nil {
		t.Fatalf("key a fired: %v", err)
	}
	if err := p.FireKey("b"); err == nil {
		t.Fatal("key b did not fire")
	}
	// Non-matching keys do not consume hits.
	if p.hitCount() != 1 {
		t.Fatalf("hits = %d, want 1", p.hitCount())
	}
}

func TestCountCap(t *testing.T) {
	disarm(t)
	p := New("test.count")
	p.MustArm(Spec{Action: ActError, Count: 2})
	fired := 0
	for i := 0; i < 5; i++ {
		if p.FireKey("") != nil {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want 2", fired)
	}
}

func TestRearmResetsCounters(t *testing.T) {
	disarm(t)
	p := New("test.rearm")
	p.MustArm(Spec{Action: ActError, Hit: 1})
	if p.FireKey("") == nil {
		t.Fatal("first arming did not fire")
	}
	p.MustArm(Spec{Action: ActError, Hit: 1})
	if p.FireKey("") == nil {
		t.Fatal("re-armed point did not fire on its first hit")
	}
}

func TestNewIsIdempotent(t *testing.T) {
	if New("test.same") != New("test.same") {
		t.Fatal("New returned distinct points for one name")
	}
	if _, ok := lookup("test.same"); !ok {
		t.Fatal("Lookup missed a registered point")
	}
	if _, ok := lookup("test.never-registered"); ok {
		t.Fatal("Lookup invented a point")
	}
}

func TestArmedLists(t *testing.T) {
	disarm(t)
	New("test.armed.a").MustArm(Spec{Action: ActError})
	New("test.armed.b").MustArm(Spec{Action: ActPanic})
	got := Armed()
	want := map[string]bool{"test.armed.a": true, "test.armed.b": true}
	for _, name := range got {
		delete(want, name)
	}
	if len(want) != 0 {
		t.Fatalf("Armed() = %v, missing %v", got, want)
	}
}

func TestSeededHit(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		h := seededHit(seed, 10)
		if h < 1 || h > 10 {
			t.Fatalf("SeededHit(%d, 10) = %d, out of [1,10]", seed, h)
		}
		if h2 := seededHit(seed, 10); h2 != h {
			t.Fatalf("SeededHit(%d, 10) not stable: %d vs %d", seed, h, h2)
		}
	}
	if seededHit(3, 0) != 1 {
		t.Fatal("SeededHit with n=0 must clamp to 1")
	}
	// Adjacent seeds should not all collapse onto one hit.
	seen := map[uint64]bool{}
	for s := int64(0); s < 16; s++ {
		seen[seededHit(s, 1000)] = true
	}
	if len(seen) < 8 {
		t.Fatalf("seeded hits look degenerate: %d distinct in 16 seeds", len(seen))
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		name string
		want Spec
	}{
		{"p=error", "p", Spec{Action: ActError}},
		{"p=error:disk full", "p", Spec{Action: ActError, Msg: "disk full"}},
		{"a.b=panic", "a.b", Spec{Action: ActPanic}},
		{"p=sleep:150ms", "p", Spec{Action: ActSleep, Delay: 150 * time.Millisecond}},
		{"p=short:12", "p", Spec{Action: ActShortWrite, Bytes: 12}},
		{"p=error@hit=4", "p", Spec{Action: ActError, Hit: 4}},
		{"p=error@key=x/y round 2", "p", Spec{Action: ActError, Key: "x/y round 2"}},
		{"p=error@count=3", "p", Spec{Action: ActError, Count: 3}},
		{"p=panic@hit=2@count=1", "p", Spec{Action: ActPanic, Hit: 2, Count: 1}},
		{"p=error@seed=42:10", "p", Spec{Action: ActError, Hit: seededHit(42, 10)}},
	}
	for _, c := range cases {
		name, spec, err := parseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if name != c.name || spec != c.want {
			t.Fatalf("ParseSpec(%q) = %q %+v, want %q %+v", c.in, name, spec, c.name, c.want)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"noequals",
		"=error",
		"p=explode",
		"p=sleep:xyz",
		"p=sleep",
		"p=short:abc",
		"p=error@hit=0",
		"p=error@hit=x",
		"p=error@count=0",
		"p=error@seed=42",
		"p=error@seed=42:0",
		"p=error@bogus=1",
		"p=error@key",
	}
	for _, in := range bad {
		if _, _, err := parseSpec(in); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", in)
		}
	}
}

// TestParseSpecBlankName: a name that is empty only after trimming is
// rejected too — accepting it handed New an empty name, which panics.
func TestParseSpecBlankName(t *testing.T) {
	disarm(t)
	for _, in := range []string{" =panic", "\t=error", "  =short:3@hit=1"} {
		if name, _, err := parseSpec(in); err == nil {
			t.Fatalf("ParseSpec(%q) accepted blank name %q", in, name)
		}
		if err := ArmSpecs(in); err == nil {
			t.Fatalf("ArmSpecs(%q) accepted a blank name", in)
		}
	}
}

func TestArmSpecs(t *testing.T) {
	disarm(t)
	if err := ArmSpecs(""); err != nil {
		t.Fatalf("empty list: %v", err)
	}
	if enabled.Load() {
		t.Fatal("empty ArmSpecs enabled injection")
	}
	err := ArmSpecs("test.specs.a=error:x@hit=1, test.specs.b=sleep:1ms")
	if err != nil {
		t.Fatalf("ArmSpecs: %v", err)
	}
	if !enabled.Load() {
		t.Fatal("ArmSpecs did not enable injection")
	}
	a, _ := lookup("test.specs.a")
	if err := a.FireKey(""); err == nil {
		t.Fatal("armed point a did not fire")
	}
	// A parse error arms nothing.
	if err := ArmSpecs("test.specs.c=error,test.specs.d=bogus"); err == nil {
		t.Fatal("bad list accepted")
	}
	if c, ok := lookup("test.specs.c"); ok {
		if c.spec != nil {
			t.Fatal("bad list partially armed test.specs.c")
		}
	}
}

func TestConcurrentFire(t *testing.T) {
	disarm(t)
	p := New("test.concurrent")
	p.MustArm(Spec{Action: ActError, Hit: 50})
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if p.FireKey("") != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fired != 1 {
		t.Fatalf("hit=50 fired %d times across 200 calls, want exactly 1", fired)
	}
	if p.hitCount() != 200 {
		t.Fatalf("hits = %d, want 200", p.hitCount())
	}
}
