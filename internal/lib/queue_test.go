package lib

import (
	"testing"
	"testing/quick"
)

// TestRingStartsEmptyAndGrowsToBound pins the lazy growth schedule: no
// storage until the first Enqueue, then 4 → 8 → … doubling, capped at
// the bound, with ErrQueueFull at exactly the bound.
func TestRingStartsEmptyAndGrowsToBound(t *testing.T) {
	q := MakeRing[int](128)
	if q.items != nil || q.Cap() != 128 {
		t.Fatalf("fresh ring: storage %d slots, Cap %d; want none and 128", len(q.items), q.Cap())
	}
	var sizes []int
	for i := 0; i < 128; i++ {
		if err := q.Enqueue(i); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		if n := len(q.items); len(sizes) == 0 || sizes[len(sizes)-1] != n {
			sizes = append(sizes, n)
		}
	}
	want := []int{4, 8, 16, 32, 64, 128}
	if len(sizes) != len(want) {
		t.Fatalf("storage sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("storage sizes %v, want %v", sizes, want)
		}
	}
	if err := q.Enqueue(128); err != ErrQueueFull {
		t.Fatalf("enqueue past the bound: err = %v, want ErrQueueFull", err)
	}
	if q.Len() != 128 {
		t.Fatalf("Len = %d after overflow, want 128", q.Len())
	}
	for i := 0; i < 128; i++ {
		if v, ok := q.Dequeue(); !ok || v != i {
			t.Fatalf("dequeue = %v %v, want %d true", v, ok, i)
		}
	}
}

// TestRingBoundNotPowerOfTwo caps the last growth step at the bound.
func TestRingBoundNotPowerOfTwo(t *testing.T) {
	q := MakeRing[int](6)
	for i := 0; i < 6; i++ {
		if err := q.Enqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	if len(q.items) != 6 {
		t.Fatalf("storage %d slots at bound 6", len(q.items))
	}
	if err := q.Enqueue(6); err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

// TestRingGrowsAcrossWrap grows a ring whose contents wrap around the
// end of its storage; order must survive the unwrap.
func TestRingGrowsAcrossWrap(t *testing.T) {
	q := MakeRing[int](16)
	next, want := 0, 0
	for i := 0; i < 4; i++ {
		_ = q.Enqueue(next)
		next++
	}
	for i := 0; i < 3; i++ { // head moves to slot 3
		if v, _ := q.Dequeue(); v != want {
			t.Fatalf("got %d, want %d", v, want)
		}
		want++
	}
	for i := 0; i < 3; i++ { // wraps into slots 0..2, ring full at 4
		_ = q.Enqueue(next)
		next++
	}
	if q.head == 0 || len(q.items) != 4 {
		t.Fatalf("setup: head %d, storage %d; want a wrapped 4-slot ring", q.head, len(q.items))
	}
	_ = q.Enqueue(next) // grows to 8 while wrapped
	next++
	for want < next {
		v, ok := q.Dequeue()
		if !ok || v != want {
			t.Fatalf("dequeue = %d %v, want %d", v, ok, want)
		}
		want++
	}
}

// TestRingMatchesSliceModel drives random enqueue/dequeue runs against
// a slice model at a bound that is not a power of two, so FIFO order is
// checked across every wrap and growth step.
func TestRingMatchesSliceModel(t *testing.T) {
	f := func(ops []uint8) bool {
		const bound = 37
		q := MakeRing[int](bound)
		var model []int
		next := 0
		for _, op := range ops {
			if op%3 != 0 { // enqueue twice as often as dequeue
				err := q.Enqueue(next)
				if len(model) == bound {
					if err != ErrQueueFull {
						return false
					}
					continue
				}
				if err != nil {
					return false
				}
				model = append(model, next)
				next++
				continue
			}
			v, ok := q.Dequeue()
			if len(model) == 0 {
				if ok {
					return false
				}
				continue
			}
			if !ok || v != model[0] {
				return false
			}
			model = model[1:]
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRingZeroesDequeuedSlots: a dequeued pointer must not stay
// reachable from the ring's storage, or freed messages would be
// retained for as long as the (possibly dead) path is.
func TestRingZeroesDequeuedSlots(t *testing.T) {
	q := MakeRing[*int](8)
	for i := 0; i < 6; i++ {
		v := i
		_ = q.Enqueue(&v)
	}
	for i := 0; i < 4; i++ {
		_, _ = q.Dequeue()
	}
	live := 0
	for _, p := range q.items {
		if p != nil {
			live++
		}
	}
	if live != q.Len() {
		t.Fatalf("%d non-nil slots for %d queued items", live, q.Len())
	}
}

// TestRingFlushKeepsStorage: Flush hands every item to fn in FIFO
// order, empties the ring, keeps its storage (zeroed), and the ring is
// reusable.
func TestRingFlushKeepsStorage(t *testing.T) {
	q := MakeRing[int](8)
	for i := 0; i < 5; i++ {
		_ = q.Enqueue(i)
	}
	_, _ = q.Dequeue()
	var dropped []int
	q.Flush(func(v int) { dropped = append(dropped, v) })
	if len(dropped) != 4 || dropped[0] != 1 || dropped[3] != 4 {
		t.Fatalf("flush dropped %v, want [1 2 3 4]", dropped)
	}
	if q.Len() != 0 || len(q.items) != 8 {
		t.Fatalf("after flush: Len %d, storage %d slots, want 0 and 8", q.Len(), len(q.items))
	}
	for i, v := range q.items {
		if v != 0 {
			t.Fatalf("slot %d still holds %d after flush", i, v)
		}
	}
	if err := q.Enqueue(9); err != nil {
		t.Fatal(err)
	}
	if v, ok := q.Dequeue(); !ok || v != 9 {
		t.Fatalf("reuse after flush: %d %v", v, ok)
	}
}

func TestMakeRingRejectsNonPositiveBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MakeRing(0) did not panic")
		}
	}()
	MakeRing[int](0)
}
