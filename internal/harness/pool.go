package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds simulation concurrency. One pool is shared by every
// experiment in a run, so the hardware stays saturated across studies
// without oversubscription.
type Pool struct {
	workers int
}

// NewPool returns a pool of the given width; workers <= 0 defaults to
// GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the pool width.
func (p *Pool) Workers() int { return p.workers }

// PanicError is a panic recovered at a unit-attempt boundary, preserving
// the panic value and the panicking goroutine's stack so the failure
// stays diagnosable after the sweep moves on.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// DoAll runs fn(0..n-1) on up to Workers goroutines and waits for all
// of them. Workers claim indices from a shared counter, so the schedule
// is work-stealing; determinism comes from fn writing only to its own
// index. Every index runs to completion regardless of other units'
// failures, and the per-index errors come back positionally. fn must not
// panic: DoAll has no guard of its own, so the harness recovers each unit
// attempt into a *PanicError (attemptUnit) — one bad unit fails alone
// while its siblings finish and persist their results.
func (p *Pool) DoAll(n int, fn func(i int) error) []error {
	errs := make([]error, n)
	if n <= 0 {
		return errs
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
		return errs
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errs
}
