package msg

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func owner() *core.Owner { return core.NewOwner("p", core.PathOwner) }

func TestPushPopRoundTrip(t *testing.T) {
	o := owner()
	m := FromBytes(o, []byte("payload"))
	hdr := m.Push(4)
	copy(hdr, "HDR:")
	if m.Len() != 11 {
		t.Fatalf("len = %d", m.Len())
	}
	if !bytes.Equal(m.Bytes(), []byte("HDR:payload")) {
		t.Fatalf("bytes = %q", m.Bytes())
	}
	got := m.Pop(4)
	if !bytes.Equal(got, []byte("HDR:")) {
		t.Fatalf("popped %q", got)
	}
	if !bytes.Equal(m.Bytes(), []byte("payload")) {
		t.Fatalf("after pop: %q", m.Bytes())
	}
	m.Free()
	if o.Counters.Kmem != 0 {
		t.Fatalf("kmem leaked: %d", o.Counters.Kmem)
	}
}

func TestPushBeyondHeadroomReallocates(t *testing.T) {
	o := owner()
	m := New(o, 2, 8)
	m.Append([]byte("abc"))
	h := m.Push(10) // exceeds the 2-byte headroom
	copy(h, "0123456789")
	if !bytes.Equal(m.Bytes(), []byte("0123456789abc")) {
		t.Fatalf("bytes = %q", m.Bytes())
	}
	m.Free()
	if o.Counters.Kmem != 0 {
		t.Fatal("kmem leaked after realloc")
	}
}

// TestExtendFillsInPlace: a reply sized for its body and filled through
// Extend is the same message, with the same kmem charge, as FromBytes
// of that body; only the host copy is gone.
func TestExtendFillsInPlace(t *testing.T) {
	body := []byte("document body")
	viaCopy, viaExtend := owner(), owner()
	want := FromBytes(viaCopy, body)
	m := New(viaExtend, DefaultHeadroom, len(body))
	tail := m.Extend(len(body))
	copy(tail, body)
	if !bytes.Equal(m.Bytes(), want.Bytes()) || m.head != want.head || len(m.b.data) != len(want.b.data) {
		t.Fatalf("extend: %q head %d size %d; FromBytes: %q head %d size %d",
			m.Bytes(), m.head, len(m.b.data), want.Bytes(), want.head, len(want.b.data))
	}
	if viaExtend.Counters.Kmem != viaCopy.Counters.Kmem {
		t.Fatalf("kmem %d, want %d", viaExtend.Counters.Kmem, viaCopy.Counters.Kmem)
	}
	// Past the tail room, or on a shared backing, Extend reallocates
	// like Append and keeps the bytes already there.
	d := m.Dup(viaExtend)
	copy(m.Extend(3), "!!!")
	if got := string(m.Bytes()); got != "document body!!!" || m.Refs() != 1 || d.Refs() != 1 {
		t.Fatalf("extend on shared backing: %q refs %d/%d", got, m.Refs(), d.Refs())
	}
	d.Free()
	m.Free()
	want.Free()
	if viaExtend.Counters.Kmem != 0 || viaCopy.Counters.Kmem != 0 {
		t.Fatalf("kmem leaked: %d %d", viaExtend.Counters.Kmem, viaCopy.Counters.Kmem)
	}
}

func TestPopTooMuchPanics(t *testing.T) {
	m := FromBytes(owner(), []byte("ab"))
	defer func() {
		if recover() == nil {
			t.Fatal("oversized pop did not panic")
		}
	}()
	m.Pop(3)
}

func TestTrim(t *testing.T) {
	m := FromBytes(owner(), []byte("abcdef"))
	m.Trim(3)
	if !bytes.Equal(m.Bytes(), []byte("abc")) {
		t.Fatalf("bytes = %q", m.Bytes())
	}
}

func TestSliceSharesBacking(t *testing.T) {
	o := owner()
	o2 := core.NewOwner("q", core.PathOwner)
	m := FromBytes(o, []byte("0123456789"))
	s := m.Slice(o2, 2, 5)
	if !bytes.Equal(s.Bytes(), []byte("23456")) {
		t.Fatalf("slice = %q", s.Bytes())
	}
	if m.Refs() != 2 {
		t.Fatalf("refs = %d", m.Refs())
	}
	// Slice mutation via Push must not corrupt the original (copy-on-
	// write when shared).
	h := s.Push(2)
	copy(h, "XX")
	if !bytes.Equal(m.Bytes(), []byte("0123456789")) {
		t.Fatalf("original corrupted: %q", m.Bytes())
	}
	s.Free()
	m.Free()
	if o.Counters.Kmem != 0 || o2.Counters.Kmem != 0 {
		t.Fatalf("kmem leaked: %d %d", o.Counters.Kmem, o2.Counters.Kmem)
	}
}

func TestAppendOnSharedBackingCopies(t *testing.T) {
	o := owner()
	m := FromBytes(o, []byte("abc"))
	d := m.Dup(o)
	m.Append([]byte("XYZ"))
	if !bytes.Equal(d.Bytes(), []byte("abc")) {
		t.Fatalf("dup sees appended data: %q", d.Bytes())
	}
	if !bytes.Equal(m.Bytes(), []byte("abcXYZ")) {
		t.Fatalf("append lost: %q", m.Bytes())
	}
	d.Free()
	m.Free()
}

func TestFreeOrderIndependence(t *testing.T) {
	o := owner()
	m := FromBytes(o, []byte("data"))
	s1 := m.Slice(o, 0, 2)
	s2 := m.Slice(o, 2, 2)
	m.Free() // original freed first; slices must stay valid
	if !bytes.Equal(s1.Bytes(), []byte("da")) || !bytes.Equal(s2.Bytes(), []byte("ta")) {
		t.Fatal("slices invalidated by original free")
	}
	s1.Free()
	s2.Free()
	if o.Counters.Kmem != 0 {
		t.Fatalf("kmem leaked: %d", o.Counters.Kmem)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	m := FromBytes(owner(), []byte("x"))
	m.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	m.Free()
}

// TestHeaderStackProperty: pushing N headers then popping them yields the
// original payload regardless of sizes — the invariant the protocol
// stack depends on.
func TestHeaderStackProperty(t *testing.T) {
	f := func(payload []byte, hdrs []uint8) bool {
		o := owner()
		m := FromBytes(o, payload)
		var pushed [][]byte
		for i, hn := range hdrs {
			n := int(hn%40) + 1
			h := m.Push(n)
			for j := range h {
				h[j] = byte(i)
			}
			cp := make([]byte, n)
			copy(cp, h)
			pushed = append(pushed, cp)
		}
		for i := len(pushed) - 1; i >= 0; i-- {
			got := m.Pop(len(pushed[i]))
			if !bytes.Equal(got, pushed[i]) {
				return false
			}
		}
		ok := bytes.Equal(m.Bytes(), payload)
		m.Free()
		return ok && o.Counters.Kmem == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestKmemAlwaysBalances: arbitrary slice/free interleavings leave no
// residual kmem charge.
func TestKmemAlwaysBalances(t *testing.T) {
	f := func(ops []uint8) bool {
		o := owner()
		root := FromBytes(o, bytes.Repeat([]byte("x"), 100))
		live := []*Msg{root}
		for _, op := range ops {
			switch {
			case op%3 == 0 && len(live) > 0:
				src := live[int(op)%len(live)]
				if src.Len() > 1 {
					live = append(live, src.Slice(o, 0, src.Len()/2))
				}
			case len(live) > 0:
				i := int(op) % len(live)
				live[i].Free()
				live = append(live[:i], live[i+1:]...)
			}
		}
		for _, m := range live {
			m.Free()
		}
		return o.Counters.Kmem == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRecycledBackingReadsZero: storage a freed message leaves behind
// is zeroed before a new message gets it, whatever the old one wrote.
func TestRecycledBackingReadsZero(t *testing.T) {
	o := owner()
	for i := 0; i < 100; i++ {
		m := New(o, DefaultHeadroom, 1000)
		for _, b := range m.b.data {
			if b != 0 {
				t.Fatalf("round %d: fresh message storage holds %#x", i, b)
			}
		}
		fill := m.Extend(1000)
		for j := range fill {
			fill[j] = 0xAB
		}
		copy(m.Push(4), "HDR:")
		m.Free()
	}
}

// TestSharedBackingOutlivesEarlierFrees: a backing shared through Slice
// and Dup stays intact, and is not handed to a new message, until its
// last reference is freed.
func TestSharedBackingOutlivesEarlierFrees(t *testing.T) {
	o := owner()
	root := FromBytes(o, []byte("shared payload"))
	dup := root.Dup(o)
	slice := root.Slice(o, 7, 7)
	b := root.b
	root.Free()
	dup.Free()
	for i := 0; i < 100; i++ {
		m := FromBytes(o, []byte("other bytes!!!"))
		if m.b == b {
			t.Fatal("a backing with a live reference was recycled")
		}
		defer m.Free()
	}
	if got := string(slice.Bytes()); got != "payload" {
		t.Fatalf("slice reads %q after the other references were freed", got)
	}
	if slice.Refs() != 1 {
		t.Fatalf("refs = %d, want 1", slice.Refs())
	}
	slice.Free()
}

// TestOpOnFreedMessagePanics: Free drops the descriptor's backing, so
// every later operation panics instead of reading recycled storage.
func TestOpOnFreedMessagePanics(t *testing.T) {
	ops := map[string]func(m *Msg){
		"Bytes":  func(m *Msg) { m.Bytes() },
		"Push":   func(m *Msg) { m.Push(1) },
		"Pop":    func(m *Msg) { m.Pop(1) },
		"Trim":   func(m *Msg) { m.Trim(1) },
		"Append": func(m *Msg) { m.Append([]byte("x")) },
		"Extend": func(m *Msg) { m.Extend(1) },
		"Slice":  func(m *Msg) { m.Slice(m.Owner(), 0, 1) },
		"Dup":    func(m *Msg) { m.Dup(m.Owner()) },
		"Refs":   func(m *Msg) { m.Refs() },
		"Free":   func(m *Msg) { m.Free() },
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			m := FromBytes(owner(), []byte("abc"))
			m.Free()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on a freed message did not panic", name)
				}
			}()
			op(m)
		})
	}
}

// TestKmemChargesByLength pins the kmem each operation charges: the
// requested storage length plus the descriptor, never the pooled
// capacity behind it, so recycling changes no simulated charge.
func TestKmemChargesByLength(t *testing.T) {
	o := owner()
	m := New(o, 10, 1000) // capacity rounds up to a 1024-byte class
	if got, want := o.Counters.Kmem, uint64(10+1000+msgKmem); got != want {
		t.Fatalf("New: kmem = %d, want %d", got, want)
	}
	m.Append([]byte("abc"))
	m.Push(20) // beyond the 10-byte headroom: realloc with 20+128 head room
	pushed := uint64(20 + DefaultHeadroom + 3)
	if got, want := o.Counters.Kmem, pushed+msgKmem; got != want {
		t.Fatalf("Push realloc: kmem = %d, want %d", got, want)
	}
	d := m.Dup(o)
	m.Extend(5) // shared backing: realloc keeping the 128-byte head, 5+256 tail
	extended := uint64(DefaultHeadroom + 23 + 5 + 256)
	if got, want := o.Counters.Kmem, pushed+extended+2*msgKmem; got != want {
		t.Fatalf("Extend realloc: kmem = %d, want %d", got, want)
	}
	d.Free()
	if got, want := o.Counters.Kmem, extended+msgKmem; got != want {
		t.Fatalf("after Free of the dup: kmem = %d, want %d", got, want)
	}
	m.Free()
	if o.Counters.Kmem != 0 {
		t.Fatalf("kmem leaked: %d", o.Counters.Kmem)
	}
}
