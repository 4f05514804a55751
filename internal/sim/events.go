package sim

import "container/heap"

// event is a callback scheduled to run at a point in virtual time. The
// callback receives the time at which it fires.
type event struct {
	at  Time
	fn  func(Time)
	seq int64
}

// EventQueue is a priority queue of timed callbacks, ordered by firing time
// with FIFO tie-breaking. It is the backbone for background activity such
// as write-back daemons and battery drain checks.
//
// The queue does not advance the clock by itself: the owner calls RunUntil
// (typically just before each foreground operation) to fire everything due.
type EventQueue struct {
	h   eventHeap
	seq int64
}

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// At schedules fn to run at time t.
func (q *EventQueue) At(t Time, fn func(Time)) {
	q.seq++
	heap.Push(&q.h, &event{at: t, fn: fn, seq: q.seq})
}

// After schedules fn to run d after now.
func (q *EventQueue) After(now Time, d Duration, fn func(Time)) {
	q.At(now.Add(d), fn)
}

// RunUntil fires, in time order, every pending event scheduled at or before t.
// Events scheduled by callbacks are honoured if they also fall at or before
// t. It returns the number of events fired.
func (q *EventQueue) RunUntil(t Time) int {
	fired := 0
	for q.h.Len() > 0 && q.h[0].at <= t {
		e := heap.Pop(&q.h).(*event)
		e.fn(e.at)
		fired++
	}
	return fired
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
