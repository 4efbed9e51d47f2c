package wire

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"
)

// refSum is the straightforward RFC 1071 loop, one big-endian 16-bit
// word per iteration, kept as the oracle for sum. Its accumulator is
// 64 bits wide, so it cannot overflow on any buffer a test builds.
func refSum(b []byte, acc uint64) uint64 {
	n := len(b)
	for i := 0; i+1 < n; i += 2 {
		acc += uint64(b[i])<<8 | uint64(b[i+1])
	}
	if n%2 == 1 {
		acc += uint64(b[n-1]) << 8
	}
	return acc
}

func refFinish(acc uint64) uint16 {
	for acc>>16 != 0 {
		acc = (acc & 0xFFFF) + acc>>16
	}
	return ^uint16(acc)
}

// refTCPChecksum lays the IPv4 pseudo-header out in bytes, as RFC 793
// draws it, and sums it with refSum.
func refTCPChecksum(hdr []byte, srcIP, dstIP uint32, payload []byte) uint16 {
	var pseudo [12]byte
	binary.BigEndian.PutUint32(pseudo[0:4], srcIP)
	binary.BigEndian.PutUint32(pseudo[4:8], dstIP)
	pseudo[9] = ProtoTCP
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(hdr)+len(payload)))
	return refFinish(refSum(payload, refSum(hdr, refSum(pseudo[:], 0))))
}

// bigChecksum is the Internet checksum computed with arbitrary
// precision: the ones'-complement sum of the 16-bit words is their
// integer sum reduced mod 2^16-1, with a nonzero multiple of 2^16-1
// reading as 0xFFFF (ones'-complement negative zero).
func bigChecksum(b []byte) uint16 {
	s := new(big.Int)
	w := new(big.Int)
	for i := 0; i < len(b); i += 2 {
		v := uint64(b[i]) << 8
		if i+1 < len(b) {
			v |= uint64(b[i+1])
		}
		s.Add(s, w.SetUint64(v))
	}
	if s.Sign() == 0 {
		return 0xFFFF
	}
	s.Sub(s, big.NewInt(1))
	s.Mod(s, big.NewInt(0xFFFF))
	return ^uint16(s.Uint64() + 1)
}

// TestChecksumLargeAllOnes: an all-0xFF buffer of 256 KiB and more
// overflowed the old 32-bit accumulator (131072 words of 0xFFFF exceed
// 2^32) and came out as 0x0001 instead of 0. The 64-bit sum has no
// such limit.
func TestChecksumLargeAllOnes(t *testing.T) {
	for _, n := range []int{256 << 10, 256<<10 + 1, 256<<10 + 6, 1<<20 + 3} {
		b := make([]byte, n)
		for i := range b {
			b[i] = 0xFF
		}
		if got, want := Checksum(b), bigChecksum(b); got != want {
			t.Errorf("Checksum(%d bytes of 0xFF) = %#04x, want %#04x", n, got, want)
		}
	}
}

// TestChecksumMatchesReference: random buffers of every length up to a
// few words past the unrolled block, and chained header+payload sums
// split at every even offset, agree with the one-word loop and with
// the arbitrary-precision sum.
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 80; n++ {
		for rep := 0; rep < 50; rep++ {
			b := make([]byte, n)
			for i := range b {
				// Mostly high bytes, so the carries are exercised.
				b[i] = byte(rng.Intn(256)) | byte(0xF0*rng.Intn(2))
			}
			if got, want := Checksum(b), refFinish(refSum(b, 0)); got != want {
				t.Fatalf("Checksum(% x) = %#04x, ref %#04x", b, got, want)
			}
			if got, want := Checksum(b), bigChecksum(b); got != want {
				t.Fatalf("Checksum(% x) = %#04x, big %#04x", b, got, want)
			}
			src, dst := rng.Uint32(), rng.Uint32()
			for i := 0; i <= n; i += 2 {
				if got, want := tcpChecksum(b[:i], src, dst, b[i:]), refTCPChecksum(b[:i], src, dst, b[i:]); got != want {
					t.Fatalf("tcpChecksum split %d of % x = %#04x, ref %#04x", i, b, got, want)
				}
			}
		}
	}
}

// TestChecksumAllocatesNothing: the checksum of a full segment runs on
// the stack.
func TestChecksumAllocatesNothing(t *testing.T) {
	b := make([]byte, MSS)
	if allocs := testing.AllocsPerRun(100, func() { _ = Checksum(b) }); allocs != 0 {
		t.Fatalf("Checksum allocates %.1f times per call", allocs)
	}
}

// BenchmarkChecksum1460 prices the checksum of one full TCP segment,
// which every segment pays twice: once by PutTCP, once by ParseTCP.
func BenchmarkChecksum1460(b *testing.B) {
	buf := make([]byte, MSS)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	b.SetBytes(MSS)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Checksum(buf)
	}
}
