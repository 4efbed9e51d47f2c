package lib

// Hash is a separately-chained hash table with uint64 keys, used for the
// per-path table of allowed protection-domain crossings (§3.1) and the
// TCP demultiplexing table. The paper stresses that crossing lookups are
// "almost always constant" time; this table resizes at load factor 0.75 to
// keep that true. A hand-built table (rather than Go's map) lets us charge
// its memory to owners precisely and keeps iteration order deterministic.
// Deleted entries are kept for reuse, so a table whose contents churn
// (the TCP connection table) allocates nothing in steady state; the
// kept entries never outnumber the table's peak size.
type Hash struct {
	buckets []*hashEntry
	count   int
	free    *hashEntry // deleted entries, reused by Put (linked through next)
}

type hashEntry struct {
	key   uint64
	value any
	next  *hashEntry
}

// NewHash returns a table pre-sized for the given number of entries.
func NewHash(sizeHint int) *Hash {
	n := 8
	for n < sizeHint {
		n <<= 1
	}
	return &Hash{buckets: make([]*hashEntry, n)}
}

// Len returns the number of stored entries.
func (h *Hash) Len() int { return h.count }

// MemSize returns the approximate memory footprint in bytes, used to
// charge the table's kernel memory to its owner.
func (h *Hash) MemSize() int {
	return len(h.buckets)*8 + h.count*32
}

// Mix64 is the table's 64-bit finalizer, exported for callers that
// need the same cheap, well-distributed hash outside the table (the
// client-puzzle check hashes the SYN's source/sequence pair with it).
func Mix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	k *= 0xC4CEB9FE1A85EC53
	k ^= k >> 33
	return k
}

func (h *Hash) bucket(key uint64) int {
	return int(Mix64(key) & uint64(len(h.buckets)-1))
}

// Put stores value under key, replacing any existing entry. It reports
// whether the key was new.
func (h *Hash) Put(key uint64, value any) bool {
	b := h.bucket(key)
	for e := h.buckets[b]; e != nil; e = e.next {
		if e.key == key {
			e.value = value
			return false
		}
	}
	e := h.free
	if e != nil {
		h.free = e.next
	} else {
		e = new(hashEntry)
	}
	*e = hashEntry{key: key, value: value, next: h.buckets[b]}
	h.buckets[b] = e
	h.count++
	if h.count*4 > len(h.buckets)*3 {
		h.grow()
	}
	return true
}

// Get returns the value stored under key.
func (h *Hash) Get(key uint64) (any, bool) {
	for e := h.buckets[h.bucket(key)]; e != nil; e = e.next {
		if e.key == key {
			return e.value, true
		}
	}
	return nil, false
}

// Delete removes key, reporting whether it was present.
func (h *Hash) Delete(key uint64) bool {
	b := h.bucket(key)
	var prev *hashEntry
	for e := h.buckets[b]; e != nil; e = e.next {
		if e.key == key {
			if prev == nil {
				h.buckets[b] = e.next
			} else {
				prev.next = e.next
			}
			h.count--
			*e = hashEntry{next: h.free}
			h.free = e
			return true
		}
		prev = e
	}
	return false
}

// Each visits every entry. Mutating the table during iteration other than
// deleting the visited key is unsupported.
func (h *Hash) Each(fn func(key uint64, value any)) {
	for _, head := range h.buckets {
		for e := head; e != nil; {
			next := e.next
			fn(e.key, e.value)
			e = next
		}
	}
}

func (h *Hash) grow() {
	old := h.buckets
	h.buckets = make([]*hashEntry, len(old)*2)
	for _, head := range old {
		for e := head; e != nil; {
			next := e.next
			b := h.bucket(e.key)
			e.next = h.buckets[b]
			h.buckets[b] = e
			e = next
		}
	}
}

// PairKey packs two 32-bit identifiers into one hash key; the allowed-
// crossings table keys on (from-domain, to-domain) pairs.
func PairKey(a, b uint32) uint64 {
	return uint64(a)<<32 | uint64(b)
}
