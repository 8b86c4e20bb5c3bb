package sim

import "time"

// eventQueue is a 4-ary min-heap of events ordered by (time, sequence).
// The sequence number breaks ties so that events scheduled for the same
// instant fire in scheduling order, which keeps runs deterministic; the
// (time, sequence) order is strict and total, so the heap's arity and
// internal layout can never change the pop order.
//
// The heap is implemented directly rather than through container/heap to
// avoid the interface boxing on every push/pop, and 4-ary rather than
// binary because the shallower tree does fewer comparisons per sift-down —
// the kernel is the hottest path in the whole simulator.
//
// Each slot carries a copy of its event's (at, seq) key next to the event
// pointer: sift comparisons then read the slot they already touched
// instead of dereferencing two scattered events, which is where most of
// the heap's time went. The copies cannot go stale — an event's at/seq
// never change while it is queued (cancellation is lazy, pooled reuse
// happens only after the event pops).
type qitem struct {
	at  time.Duration
	seq uint64
	ev  *event
}

type eventQueue struct {
	items []qitem
}

func (q *eventQueue) Len() int { return len(q.items) }

func (q *eventQueue) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Push inserts ev and restores the heap property.
func (q *eventQueue) Push(ev *event) {
	q.items = append(q.items, qitem{at: ev.at, seq: ev.seq, ev: ev})
	q.up(len(q.items) - 1)
}

// Pop removes and returns the earliest event, or nil if the queue is empty.
func (q *eventQueue) Pop() *event {
	n := len(q.items)
	if n == 0 {
		return nil
	}
	top := q.items[0].ev
	q.items[0] = q.items[n-1]
	q.items[n-1] = qitem{} // allow the event to be collected
	q.items = q.items[:n-1]
	if len(q.items) > 0 {
		q.down(0)
	}
	return top
}

// Peek returns the earliest event without removing it, or nil.
func (q *eventQueue) Peek() *event {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0].ev
}

func (q *eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !q.less(i, parent) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *eventQueue) down(i int) {
	n := len(q.items)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		smallest := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.less(c, smallest) {
				smallest = c
			}
		}
		if !q.less(smallest, i) {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}
