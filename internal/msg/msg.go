// Package msg implements Escort's message library: the user-level
// facility (mapped into every protection domain) for manipulating
// network messages held in IOBuffers. It provides header push/strip
// without copying via head/tail offsets into a shared backing, slices
// that share the backing under a user-level reference count (so each
// protection domain needs at most one kernel lock per IOBuffer), and
// transparent re-allocation when the library has lost write permission
// to a locked buffer.
package msg

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/core"
)

// msgKmem is the kernel-memory charge for one message descriptor.
const msgKmem = 64

// DefaultHeadroom leaves room for the Ethernet+IP+TCP headers to be
// pushed without copying.
const DefaultHeadroom = 128

// backing is the shared storage under one or more messages. When its
// last reference goes, it returns to the pool of its size class.
type backing struct {
	data  []byte // len is the requested size: the kmem charge
	refs  int
	owner *core.Owner // charged for the storage bytes
}

// Recycled backings live in one sync.Pool per size class (the parallel
// sweep runner shares this package across simulations). A class covers
// a quarter of a power of two, so a request gets storage at most 25%
// larger than it asked for; a miss allocates exactly the class size.
// Backings above maxPooled bytes are left to the garbage collector.
const (
	minClassShift = 6  // class 0 holds 64-byte storage
	maxClassShift = 16 // largest pooled storage: 64 KiB
	maxPooled     = 1 << maxClassShift
	numClasses    = 1 + 4*(maxClassShift-minClassShift)
)

var backings [numClasses]sync.Pool

// sizeClass returns the pool class for an n-byte request and the storage
// capacity of that class.
func sizeClass(n int) (class, size int) {
	if n <= 1<<minClassShift {
		return 0, 1 << minClassShift
	}
	k := bits.Len(uint(n - 1)) // 2^(k-1) < n <= 2^k
	step := 1 << (k - 3)
	size = (n + step - 1) &^ (step - 1)
	return 1 + 4*(k-1-minClassShift) + size>>(k-3) - 5, size
}

// newBacking returns n zeroed bytes of storage with one reference, to
// be charged to owner by the caller.
func newBacking(owner *core.Owner, n int) *backing {
	if n > maxPooled {
		return &backing{data: make([]byte, n), refs: 1, owner: owner}
	}
	class, size := sizeClass(n)
	b, _ := backings[class].Get().(*backing)
	if b == nil {
		return &backing{data: make([]byte, n, size), refs: 1, owner: owner}
	}
	b.data = b.data[:n]
	clear(b.data)
	b.refs, b.owner = 1, owner
	return b
}

// recycle returns storage whose last reference has gone to its pool.
func (b *backing) recycle() {
	if cap(b.data) > maxPooled {
		return
	}
	b.owner = nil
	class, _ := sizeClass(cap(b.data))
	backings[class].Put(b)
}

// NetInfo is per-message network metadata filled in by lower stages as
// they strip headers, so upper stages (TCP checksum verification, the
// passive path learning a SYN's source) can still see the addressing.
type NetInfo struct {
	SrcMAC, DstMAC uint64
	SrcIP, DstIP   uint32
}

// Msg is a network message: a window [head, tail) onto a shared backing.
// Free nils the backing, so any later use panics rather than reading
// storage that has been recycled.
type Msg struct {
	b     *backing
	head  int
	tail  int
	owner *core.Owner

	// Net carries addressing metadata between stages; slices inherit it.
	Net NetInfo
}

// New allocates a message with the given headroom and payload capacity,
// charged to owner. The payload region starts empty; use Append.
func New(owner *core.Owner, headroom, capacity int) *Msg {
	if headroom < 0 || capacity < 0 {
		panic("msg: negative size")
	}
	b := newBacking(owner, headroom+capacity)
	owner.ChargeKmem(uint64(len(b.data)) + msgKmem)
	return &Msg{b: b, head: headroom, tail: headroom, owner: owner}
}

// FromBytes builds a message holding a copy of data with DefaultHeadroom.
func FromBytes(owner *core.Owner, data []byte) *Msg {
	m := New(owner, DefaultHeadroom, len(data))
	m.Append(data)
	return m
}

// Len returns the message length in bytes.
func (m *Msg) Len() int { return m.tail - m.head }

// Bytes returns the message contents. The slice aliases the backing; it
// is valid until the message is freed, after which the storage may be
// recycled for another message.
func (m *Msg) Bytes() []byte { return m.b.data[m.head:m.tail] }

// Owner returns the owner charged for this message descriptor.
func (m *Msg) Owner() *core.Owner { return m.owner }

func (m *Msg) check(op string) {
	if m.b == nil {
		panic(fmt.Sprintf("msg: %s on freed message", op))
	}
}

// Push prepends n bytes of header space and returns the slice to fill
// in. When headroom is insufficient or the backing is shared (locked by
// another reference — the lost-write-permission case), the library
// transparently reallocates.
func (m *Msg) Push(n int) []byte {
	m.check("Push")
	if n < 0 {
		panic("msg: negative push")
	}
	if m.head < n || m.b.refs > 1 {
		m.realloc(n+DefaultHeadroom, 0)
	}
	m.head -= n
	return m.b.data[m.head : m.head+n]
}

// Pop strips n bytes of header and returns them. It panics when the
// message is shorter than n — protocol code must length-check first.
func (m *Msg) Pop(n int) []byte {
	m.check("Pop")
	if n < 0 || n > m.Len() {
		panic(fmt.Sprintf("msg: pop %d from %d-byte message", n, m.Len()))
	}
	h := m.b.data[m.head : m.head+n]
	m.head += n
	return h
}

// Trim drops the message's tail to length n (e.g. removing padding).
func (m *Msg) Trim(n int) {
	m.check("Trim")
	if n < 0 || n > m.Len() {
		panic(fmt.Sprintf("msg: trim %d of %d-byte message", n, m.Len()))
	}
	m.tail = m.head + n
}

// Append adds payload bytes at the tail, reallocating when the tail room
// is insufficient or the backing is shared.
func (m *Msg) Append(p []byte) {
	m.check("Append")
	copy(m.Extend(len(p)), p)
}

// Extend grows the message by n bytes at the tail and returns them for
// the caller to fill in place (a read straight into a reply), with
// Append's reallocation rule. The bytes are zero in a fresh backing but
// otherwise unspecified.
func (m *Msg) Extend(n int) []byte {
	m.check("Extend")
	if n < 0 {
		panic("msg: negative extend")
	}
	if m.tail+n > len(m.b.data) || m.b.refs > 1 {
		m.realloc(m.head, n+256)
	}
	m.tail += n
	return m.b.data[m.tail-n : m.tail]
}

// realloc moves the contents into a fresh backing with the requested
// head and tail slack, releasing the old reference.
func (m *Msg) realloc(headroom, tailroom int) {
	cur := m.Bytes()
	nb := newBacking(m.owner, headroom+len(cur)+tailroom)
	m.owner.ChargeKmem(uint64(len(nb.data)))
	copy(nb.data[headroom:], cur)
	m.releaseBacking()
	m.b = nb
	m.head = headroom
	m.tail = headroom + len(cur)
}

// Slice returns a new message sharing the backing, covering the byte
// range [off, off+n) of this message — the zero-copy path TCP uses to
// segment a response. The slice is charged to chargeTo (the descriptor
// only; the backing stays charged to its allocator).
func (m *Msg) Slice(chargeTo *core.Owner, off, n int) *Msg {
	m.check("Slice")
	if off < 0 || n < 0 || off+n > m.Len() {
		panic(fmt.Sprintf("msg: slice [%d,%d) of %d-byte message", off, off+n, m.Len()))
	}
	m.b.refs++
	chargeTo.ChargeKmem(msgKmem)
	return &Msg{b: m.b, head: m.head + off, tail: m.head + off + n, owner: chargeTo, Net: m.Net}
}

// Dup returns a reference to the whole message (refcount++).
func (m *Msg) Dup(chargeTo *core.Owner) *Msg {
	return m.Slice(chargeTo, 0, m.Len())
}

// Free drops this reference; the backing's bytes are refunded, and the
// storage recycled, when the last reference goes.
func (m *Msg) Free() {
	if m.b == nil {
		panic("msg: double free")
	}
	if !m.owner.Dead() {
		m.owner.RefundKmem(msgKmem)
	}
	m.releaseBacking()
	m.b = nil
}

func (m *Msg) releaseBacking() {
	b := m.b
	b.refs--
	if b.refs == 0 {
		if !b.owner.Dead() {
			b.owner.RefundKmem(uint64(len(b.data)))
		}
		b.recycle()
	}
}

// Refs returns the backing's reference count (for tests).
func (m *Msg) Refs() int { return m.b.refs }
