package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzPuzzleSolved drives verification with arbitrary difficulty,
// including the shift counts that used to wrap the mask: before the
// MaxPuzzleBits clamp, bits >= 64 turned 1<<bits-1 into an all-ones
// mask demanding a full zero hash — a puzzle nobody solves and a
// near-infinite SolvePuzzle search. Difficulty must saturate at the
// clamp instead, and zero bits must always admit.
func FuzzPuzzleSolved(f *testing.F) {
	f.Add(uint32(0x0a000101), uint32(99991), uint(12))
	f.Add(uint32(0xc0a80909), uint32(0), uint(0))
	f.Add(uint32(0x0a000101), uint32(4242), uint(MaxPuzzleBits))
	f.Add(uint32(0x0a000101), uint32(4242), uint(63))
	f.Add(uint32(0x0a000101), uint32(4242), uint(64)) // the wrapped-mask regression
	f.Add(uint32(0xffffffff), uint32(0xffffffff), uint(1)<<32)
	f.Fuzz(func(t *testing.T, srcIP, seq uint32, bits uint) {
		got := PuzzleSolved(srcIP, seq, bits)
		if bits == 0 && !got {
			t.Fatal("bits=0 must admit everything (gate disabled)")
		}
		if bits >= MaxPuzzleBits && got != PuzzleSolved(srcIP, seq, MaxPuzzleBits) {
			t.Fatalf("bits=%d does not saturate at the MaxPuzzleBits clamp", bits)
		}
	})
}

// FuzzPuzzleRoundTrip checks solve/verify agreement from arbitrary
// search starting points: whatever SolvePuzzle returns must pass
// PuzzleSolved at the same difficulty. Difficulty is folded into
// [0, 14] to bound the search at ~2^14 hashes per exec; the clamp path
// above MaxPuzzleBits is FuzzPuzzleSolved's job.
func FuzzPuzzleRoundTrip(f *testing.F) {
	f.Add(uint32(0x0a000101), uint32(99991), byte(8))
	f.Add(uint32(0xc0a80909), uint32(0), byte(0))
	f.Add(uint32(0xffffffff), uint32(0xfffffff0), byte(14)) // search wraps the seq space
	f.Fuzz(func(t *testing.T, srcIP, start uint32, rawBits byte) {
		bits := uint(rawBits) % 15
		seq := SolvePuzzle(srcIP, start, bits)
		if !PuzzleSolved(srcIP, seq, bits) {
			t.Fatalf("bits=%d: solved seq %d does not verify", bits, seq)
		}
		if bits == 0 && seq != start {
			t.Fatalf("bits=0: search moved from %d to %d instead of accepting immediately",
				start, seq)
		}
	})
}

// FuzzWireDecode throws arbitrary bytes at the decoders that see
// attacker frames. ParseEth, ParseARP, ParseIPv4 and ParseTCP must
// never panic, whether they are handed the raw bytes or the layered
// view a receiver takes (Ethernet payload, then the IPv4 payload
// checked against the IPv4 addresses). The same bytes then seed header
// fields and a payload for a Put* → Parse* round trip, which must
// decode to exactly what was encoded. Every input is also a
// differential test of the checksum against the one-word reference
// loop; the checked-in corpus covers every length mod 8 and odd tails.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, EthLen+IPv4Len+TCPLen))
	f.Add(roundTripFrame(Eth{Dst: 0x0200_0000_0001, Src: 0x0200_0000_1001, EtherType: EtherTypeIPv4},
		IPv4{TotalLen: IPv4Len + TCPLen + 5, ID: 7, TTL: 64, Proto: ProtoTCP, Src: 0x0a000101, Dst: 0x0a000001},
		TCP{SrcPort: 1024, DstPort: 80, Seq: 1, Ack: 2, Flags: FlagACK | FlagPSH, Window: 64000},
		[]byte("GET /")))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 1, 0x08, 0x06, 0, 1, 8, 0, 6, 4, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		srcIP, dstIP := uint32(0x0a000101), uint32(0x0a000001)

		// Differential oracle: the 64-bit checksum against the
		// one-word loop, on the raw bytes and on the TCP sum chained
		// over every header/payload split whose header has even length
		// (the first 4 KiB, so a long input stays cheap to split).
		if got, want := Checksum(data), refFinish(refSum(data, 0)); got != want {
			t.Fatalf("Checksum = %#04x, one-word loop %#04x", got, want)
		}
		split := data[:min(len(data), 4096)]
		for i := 0; i <= len(split); i += 2 {
			if got, want := tcpChecksum(split[:i], srcIP, dstIP, split[i:]), refTCPChecksum(split[:i], srcIP, dstIP, split[i:]); got != want {
				t.Fatalf("tcpChecksum split at %d = %#04x, one-word loop %#04x", i, got, want)
			}
		}

		ParseEth(data)
		ParseARP(data)
		ParseIPv4(data)
		ParseTCP(data, srcIP, dstIP)
		if _, err := ParseEth(data); err == nil {
			b := data[EthLen:]
			ParseARP(b)
			if iph, err := ParseIPv4(b); err == nil {
				seg := b[IPv4Len:]
				if int(iph.TotalLen) >= IPv4Len && int(iph.TotalLen) <= len(b) {
					seg = b[IPv4Len:iph.TotalLen]
				}
				ParseTCP(seg, iph.Src, iph.Dst)
			}
		}

		// Round trip: header fields from the first 48 bytes (zero
		// padded), the rest as payload, capped at one segment.
		var s [48]byte
		copy(s[:], data)
		eh := Eth{Dst: getMAC(s[0:6]), Src: getMAC(s[6:12]), EtherType: binary.BigEndian.Uint16(s[12:14])}
		ih := IPv4{
			TotalLen: binary.BigEndian.Uint16(s[14:16]), ID: binary.BigEndian.Uint16(s[16:18]),
			TTL: s[18], Proto: s[19],
			Src: binary.BigEndian.Uint32(s[20:24]), Dst: binary.BigEndian.Uint32(s[24:28]),
		}
		th := TCP{
			SrcPort: binary.BigEndian.Uint16(s[28:30]), DstPort: binary.BigEndian.Uint16(s[30:32]),
			Seq: binary.BigEndian.Uint32(s[32:36]), Ack: binary.BigEndian.Uint32(s[36:40]),
			Flags: s[40], Window: binary.BigEndian.Uint16(s[41:43]),
		}
		payload := data[min(len(data), len(s)):]
		payload = payload[:min(len(payload), MSS)]
		frame := roundTripFrame(eh, ih, th, payload)

		gotEth, err := ParseEth(frame)
		if err != nil || gotEth != eh {
			t.Fatalf("ParseEth(PutEth(%+v)) = %+v, %v", eh, gotEth, err)
		}
		gotIP, err := ParseIPv4(frame[EthLen:])
		if err != nil || gotIP != ih {
			t.Fatalf("ParseIPv4(PutIPv4(%+v)) = %+v, %v", ih, gotIP, err)
		}
		gotTCP, off, err := ParseTCP(frame[EthLen+IPv4Len:], ih.Src, ih.Dst)
		if err != nil || gotTCP != th || off != TCPLen {
			t.Fatalf("ParseTCP(PutTCP(%+v)) = %+v, %d, %v", th, gotTCP, off, err)
		}
		if !bytes.Equal(frame[EthLen+IPv4Len+off:], payload) {
			t.Fatal("payload changed in the round trip")
		}
	})
}

// roundTripFrame encodes an Ethernet/IPv4/TCP frame carrying payload.
func roundTripFrame(eh Eth, ih IPv4, th TCP, payload []byte) []byte {
	b := make([]byte, EthLen+IPv4Len+TCPLen+len(payload))
	PutEth(b, eh)
	PutIPv4(b[EthLen:], ih)
	PutTCP(b[EthLen+IPv4Len:EthLen+IPv4Len+TCPLen], th, ih.Src, ih.Dst, payload)
	copy(b[EthLen+IPv4Len+TCPLen:], payload)
	return b
}
