package lib

import "errors"

// ErrQueueFull is returned by Ring.Enqueue when the ring is at its bound.
// Path work queues are bounded so that a flood cannot consume unbounded
// memory before the path's thread runs — overflow is dropped at the edge,
// charged to no one, which is itself part of the defense story.
var ErrQueueFull = errors.New("lib: queue full")

// ringMinCap is the storage a ring allocates on its first Enqueue.
const ringMinCap = 4

// Ring is a bounded FIFO ring buffer of T values. Storage is allocated
// lazily: the first Enqueue allocates ringMinCap slots, and a full ring
// below its bound doubles (4 → 8 → … → bound), so a path whose queue
// never holds more than a few items never pays for the bound. Dequeued
// slots are zeroed, so a ring never keeps a dequeued value reachable.
//
// The zero value is unusable; use MakeRing or NewQueue.
type Ring[T any] struct {
	items []T
	head  int
	count int
	bound int
}

// MakeRing returns an empty ring holding at most bound items. It
// allocates nothing until the first Enqueue; embed the result by value
// to keep an idle ring free of heap storage.
func MakeRing[T any](bound int) Ring[T] {
	if bound <= 0 {
		panic("lib: queue capacity must be positive")
	}
	return Ring[T]{bound: bound}
}

// Queue is the ring of boxed values.
type Queue = Ring[any]

// NewQueue returns a queue holding at most capacity items.
func NewQueue(capacity int) *Queue {
	q := MakeRing[any](capacity)
	return &q
}

// Len returns the number of queued items.
func (q *Ring[T]) Len() int { return q.count }

// Cap returns the ring's bound: the most items it will ever hold.
func (q *Ring[T]) Cap() int { return q.bound }

// Enqueue appends v, or returns ErrQueueFull at the bound.
func (q *Ring[T]) Enqueue(v T) error {
	if q.count == len(q.items) {
		if q.count == q.bound {
			return ErrQueueFull
		}
		q.grow()
	}
	i := q.head + q.count
	if i >= len(q.items) {
		i -= len(q.items)
	}
	q.items[i] = v
	q.count++
	return nil
}

// grow doubles the storage, capped at the bound, unwrapping the queued
// items to the front of the new slice.
func (q *Ring[T]) grow() {
	n := min(max(2*len(q.items), ringMinCap), q.bound)
	items := make([]T, n)
	k := copy(items, q.items[q.head:])
	copy(items[k:], q.items[:q.head])
	q.items = items
	q.head = 0
}

// Dequeue removes and returns the oldest item; ok is false when empty.
func (q *Ring[T]) Dequeue() (v T, ok bool) {
	if q.count == 0 {
		return v, false
	}
	var zero T
	v = q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.head = 0
	}
	q.count--
	return v, true
}

// Flush empties the ring, calling fn (if non-nil) on each dropped item
// so owners can release per-item resources. The ring keeps its storage
// for reuse (a recycled path reuses its work queue's).
func (q *Ring[T]) Flush(fn func(T)) {
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		if fn != nil {
			fn(v)
		}
	}
	q.head = 0
}
