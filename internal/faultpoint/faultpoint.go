// Package faultpoint is the deterministic fault-injection layer of the
// sweep system: a zero-dependency registry of named fail points that
// tests, CI scripts and the CLI arm to make failures happen exactly
// where and when an experiment wants them — an injected error, a panic,
// a torn (short) write, or a delay long enough for a SIGKILL to land
// deterministically mid-sweep.
//
// The package mirrors internal/metrics in shape and discipline: handles
// are resolved once in package-level var blocks, the registry is global
// and off by default, and a disarmed point costs its call site exactly
// one predictable branch (an atomic bool load that compiles to a plain
// MOV on the usual targets). Production binaries never pay for the
// machinery they do not use.
//
// Determinism is the point. A fault armed on a call-site key (the work
// unit's identity, a store key) fires on exactly that unit no matter how
// the scheduler interleaves workers; a fault armed on a hit count fires
// on the nth call in arrival order, which is deterministic on one worker
// and "some unit, predictably mid-run" on many — exactly what a
// crash-injection script needs. Seed-derived schedules map a root seed
// onto a hit index so sweeps can shake themselves without hand-picking
// targets.
package faultpoint

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the global injection switch. Off by default: every Fire and
// ShortWrite consults it first and returns immediately, so instrumented
// paths stay branch-predictable when no faults are armed.
var enabled atomic.Bool

// Enabled reports whether fault injection is globally on.
func Enabled() bool { return enabled.Load() }

// SetEnabled flips global fault injection. Arming specs through
// ArmSpecs enables it implicitly; tests that Arm points directly flip
// it themselves (and disable it again on cleanup).
func SetEnabled(on bool) { enabled.Store(on) }

// Action is what an armed point does when it fires.
type Action uint8

const (
	// ActError makes Fire return an injected error.
	ActError Action = iota + 1
	// ActPanic makes Fire panic with a recognisable message.
	ActPanic
	// ActSleep makes Fire block for the armed delay, then return nil —
	// the hook that parks a work unit so an external SIGKILL lands at a
	// known place in a sweep.
	ActSleep
	// ActShortWrite arms ShortWrite call sites with a byte cap,
	// emulating a torn write: the site writes only the first N bytes
	// and aborts as a crashed process would.
	ActShortWrite
)

// String names the action for specs and errors.
func (a Action) String() string {
	switch a {
	case ActError:
		return "error"
	case ActPanic:
		return "panic"
	case ActSleep:
		return "sleep"
	case ActShortWrite:
		return "short"
	}
	return fmt.Sprintf("action(%d)", a)
}

// Spec describes one arming of a point: the action, its parameter, and
// the selectors deciding which calls fire.
type Spec struct {
	Action Action
	// Msg is the injected error text for ActError; empty uses a default.
	Msg string
	// Delay is the ActSleep duration.
	Delay time.Duration
	// Bytes is the ActShortWrite cap.
	Bytes int
	// Hit, when nonzero, fires only the Hit-th matching call (1-based,
	// counted from arming). Zero fires every matching call.
	Hit uint64
	// Key, when non-empty, fires only calls presenting exactly this key
	// (FireKey / ShortWrite); calls with other keys do not count hits.
	// Deterministic under any scheduling, unlike hit counts.
	Key string
	// Count, when nonzero, caps the total number of fires.
	Count uint64
}

// validate rejects specs that could never fire or carry no parameter.
func (s Spec) validate() error {
	switch s.Action {
	case ActError, ActPanic:
	case ActSleep:
		if s.Delay <= 0 {
			return fmt.Errorf("faultpoint: sleep spec needs a positive delay")
		}
	case ActShortWrite:
		if s.Bytes < 0 {
			return fmt.Errorf("faultpoint: short-write spec needs a byte cap >= 0")
		}
	default:
		return fmt.Errorf("faultpoint: unknown action %v", s.Action)
	}
	return nil
}

// Point is one named fail site. Resolve handles once with New and keep
// them in package-level vars; Fire/ShortWrite are the hot-path calls.
type Point struct {
	name string

	mu    sync.Mutex
	spec  *Spec
	hits  uint64 // matching calls since arming
	fired uint64 // calls that actually fired
}

// Name returns the point's registered name.
func (p *Point) Name() string { return p.name }

// Arm installs spec on the point, resetting its hit and fire counters.
// The global switch is left alone: call SetEnabled (or use ArmSpecs,
// which enables it) to make armed points live.
func (p *Point) Arm(spec Spec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.spec = &spec
	p.hits, p.fired = 0, 0
	return nil
}

// MustArm is Arm for tests and var blocks; it panics on an invalid spec.
func (p *Point) MustArm(spec Spec) {
	if err := p.Arm(spec); err != nil {
		panic(err)
	}
}

// Disarm removes the point's spec. Counters keep their values for
// inspection until the next Arm.
func (p *Point) Disarm() {
	p.mu.Lock()
	p.spec = nil
	p.mu.Unlock()
}

// Hits returns the matching calls counted since the last arming.
func (p *Point) Hits() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits
}

// Fired returns how many calls actually fired since the last arming.
func (p *Point) Fired() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired
}

// take decides whether the current call (presenting key) fires, consuming
// a hit and a fire slot when it does, and returns a copy of the spec.
func (p *Point) take(key string) (Spec, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.spec
	if s == nil {
		return Spec{}, false
	}
	if s.Key != "" && s.Key != key {
		return Spec{}, false
	}
	p.hits++
	if s.Hit != 0 && p.hits != s.Hit {
		return Spec{}, false
	}
	if s.Count != 0 && p.fired >= s.Count {
		return Spec{}, false
	}
	p.fired++
	return *s, true
}

// Fire is the generic injection site: it returns an injected error,
// panics, or sleeps, per the armed spec, and returns nil when disarmed
// or not selected. Short-write arms do not fire here — they belong to
// ShortWrite sites. Equivalent to FireKey("").
func (p *Point) Fire() error { return p.FireKey("") }

// FireKey is Fire with a call-site key (a unit label, a store key) that
// key-armed specs match exactly. The disarmed cost is one atomic load.
func (p *Point) FireKey(key string) error {
	if !enabled.Load() {
		return nil
	}
	spec, ok := p.take(key)
	if !ok {
		return nil
	}
	switch spec.Action {
	case ActError:
		msg := spec.Msg
		if msg == "" {
			msg = "injected fault"
		}
		return fmt.Errorf("faultpoint %s: %s", p.name, msg)
	case ActPanic:
		panic(fmt.Sprintf("faultpoint %s: injected panic", p.name))
	case ActSleep:
		time.Sleep(spec.Delay)
	}
	return nil
}

// ShortWrite is the torn-write injection site: when the point is armed
// with ActShortWrite and this call is selected, it returns the byte cap
// and true; the caller writes at most that many bytes and aborts the way
// a crashed process would. Disarmed cost: one atomic load.
func (p *Point) ShortWrite(key string) (int, bool) {
	if !enabled.Load() {
		return 0, false
	}
	spec, ok := p.take(key)
	if !ok || spec.Action != ActShortWrite {
		return 0, false
	}
	return spec.Bytes, true
}

// registry holds every resolved point by name.
var registry = struct {
	sync.Mutex
	points map[string]*Point
}{points: make(map[string]*Point)}

// New resolves (registering if needed) the point called name.
// Idempotent by name, so several packages can resolve the same point
// without coordination.
func New(name string) *Point {
	if name == "" {
		panic("faultpoint: empty point name")
	}
	registry.Lock()
	defer registry.Unlock()
	if p, ok := registry.points[name]; ok {
		return p
	}
	p := &Point{name: name}
	registry.points[name] = p
	return p
}

// Lookup returns the point called name, if it has been resolved.
func Lookup(name string) (*Point, bool) {
	registry.Lock()
	defer registry.Unlock()
	p, ok := registry.points[name]
	return p, ok
}

// Names returns every resolved point name, sorted.
func Names() []string {
	registry.Lock()
	defer registry.Unlock()
	names := make([]string, 0, len(registry.points))
	for name := range registry.points {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DisarmAll disarms every resolved point and switches injection off —
// the test-cleanup hammer.
func DisarmAll() {
	registry.Lock()
	points := make([]*Point, 0, len(registry.points))
	for _, p := range registry.points {
		points = append(points, p)
	}
	registry.Unlock()
	for _, p := range points {
		p.Disarm()
	}
	SetEnabled(false)
}

// Armed returns the names of currently armed points, sorted — for the
// one log line a faulted run prints so nobody debugs injected failures
// as real ones.
func Armed() []string {
	registry.Lock()
	points := make([]*Point, 0, len(registry.points))
	for _, p := range registry.points {
		points = append(points, p)
	}
	registry.Unlock()
	var names []string
	for _, p := range points {
		p.mu.Lock()
		armed := p.spec != nil
		p.mu.Unlock()
		if armed {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return names
}

// SeededHit derives a 1-based hit index in [1, n] from a root seed — the
// seed-derived schedule: the same seed always shakes the same call, and
// sweeping seeds sweeps the fault across the run. splitmix64 finalizer,
// so adjacent seeds land on unrelated hits.
func SeededHit(seed int64, n uint64) uint64 {
	if n == 0 {
		return 1
	}
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return 1 + z%n
}

// ParseSpec parses one arming in the CLI grammar:
//
//	name=action[:arg][@selector]...
//
// Actions: error[:message], panic, sleep:<duration>, short:<bytes>.
// Selectors: @hit=<n> (fire the n-th call), @key=<k> (fire calls
// presenting key k), @seed=<seed>:<n> (fire the seed-derived hit within
// the first n calls), @count=<n> (cap total fires).
func ParseSpec(s string) (name string, spec Spec, err error) {
	parts := strings.Split(s, "@")
	head := parts[0]
	eq := strings.IndexByte(head, '=')
	if eq >= 0 {
		name = strings.TrimSpace(head[:eq])
	}
	if name == "" {
		return "", Spec{}, fmt.Errorf("faultpoint: spec %q: want name=action[:arg]", s)
	}
	action := head[eq+1:]
	arg := ""
	if c := strings.IndexByte(action, ':'); c >= 0 {
		action, arg = action[:c], action[c+1:]
	}
	switch action {
	case "error":
		spec.Action = ActError
		spec.Msg = arg
	case "panic":
		spec.Action = ActPanic
	case "sleep":
		spec.Action = ActSleep
		d, derr := time.ParseDuration(arg)
		if derr != nil {
			return "", Spec{}, fmt.Errorf("faultpoint: spec %q: sleep duration: %v", s, derr)
		}
		spec.Delay = d
	case "short":
		spec.Action = ActShortWrite
		n, nerr := strconv.Atoi(arg)
		if nerr != nil {
			return "", Spec{}, fmt.Errorf("faultpoint: spec %q: short-write bytes: %v", s, nerr)
		}
		spec.Bytes = n
	default:
		return "", Spec{}, fmt.Errorf("faultpoint: spec %q: unknown action %q", s, action)
	}
	for _, sel := range parts[1:] {
		k, v, ok := strings.Cut(sel, "=")
		if !ok {
			return "", Spec{}, fmt.Errorf("faultpoint: spec %q: selector %q: want k=v", s, sel)
		}
		switch k {
		case "hit":
			n, nerr := strconv.ParseUint(v, 10, 64)
			if nerr != nil || n == 0 {
				return "", Spec{}, fmt.Errorf("faultpoint: spec %q: hit %q: want a positive integer", s, v)
			}
			spec.Hit = n
		case "key":
			spec.Key = v
		case "seed":
			sd, nStr, ok := strings.Cut(v, ":")
			if !ok {
				return "", Spec{}, fmt.Errorf("faultpoint: spec %q: seed %q: want seed:<n>", s, v)
			}
			seed, serr := strconv.ParseInt(sd, 10, 64)
			n, nerr := strconv.ParseUint(nStr, 10, 64)
			if serr != nil || nerr != nil || n == 0 {
				return "", Spec{}, fmt.Errorf("faultpoint: spec %q: seed %q: want <int>:<positive int>", s, v)
			}
			spec.Hit = SeededHit(seed, n)
		case "count":
			n, nerr := strconv.ParseUint(v, 10, 64)
			if nerr != nil || n == 0 {
				return "", Spec{}, fmt.Errorf("faultpoint: spec %q: count %q: want a positive integer", s, v)
			}
			spec.Count = n
		default:
			return "", Spec{}, fmt.Errorf("faultpoint: spec %q: unknown selector %q", s, k)
		}
	}
	if err := spec.validate(); err != nil {
		return "", Spec{}, err
	}
	return name, spec, nil
}

// ArmSpecs parses and arms a comma-separated list of specs (the CLI
// -faultpoints flag) and enables injection globally. An empty list is a
// no-op. Any parse error leaves every listed point disarmed.
func ArmSpecs(list string) error {
	list = strings.TrimSpace(list)
	if list == "" {
		return nil
	}
	type arming struct {
		name string
		spec Spec
	}
	var armings []arming
	for _, one := range strings.Split(list, ",") {
		one = strings.TrimSpace(one)
		if one == "" {
			continue
		}
		name, spec, err := ParseSpec(one)
		if err != nil {
			return err
		}
		armings = append(armings, arming{name, spec})
	}
	for _, a := range armings {
		if err := New(a.name).Arm(a.spec); err != nil {
			return err
		}
	}
	if len(armings) > 0 {
		SetEnabled(true)
	}
	return nil
}
