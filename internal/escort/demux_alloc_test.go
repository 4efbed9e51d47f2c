package escort

import (
	"testing"

	"repro/internal/lib"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/proto/wire"

	ethmod "repro/internal/proto/eth"
	tcpmod "repro/internal/proto/tcp"
)

// TestEstablishedDemuxAllocatesNothing: demultiplexing a segment of an
// established connection — ETH, IP and TCP demux down to the active
// path — allocates nothing on the host, on every server kind.
func TestEstablishedDemuxAllocatesNothing(t *testing.T) {
	for _, kind := range []Kind{KindScout, KindAccounting, KindAccountingPD} {
		t.Run(kind.String(), func(t *testing.T) {
			b := newBed(t, kind, Options{})
			srv := b.srv
			clientIP, clientMAC := lib.IPv4(10, 0, 1, 1), netsim.MAC(0x0200_0000_1000)
			p, err := srv.Paths.Create(nil, "Active Path trusted:5000#1", "scsi", lib.Attrs{
				lib.AttrRemoteIP:    clientIP,
				lib.AttrRemotePort:  5000,
				lib.AttrLocalPort:   80,
				ethmod.AttrPeerMAC:  clientMAC,
				tcpmod.AttrIRS:      uint32(1),
				tcpmod.AttrListener: srv.Trusted,
			})
			if err != nil {
				t.Fatal(err)
			}
			frame := make([]byte, wire.EthLen+wire.IPv4Len+wire.TCPLen)
			wire.PutEth(frame, wire.Eth{Dst: ServerMAC, Src: clientMAC, EtherType: wire.EtherTypeIPv4})
			wire.PutIPv4(frame[wire.EthLen:], wire.IPv4{TotalLen: wire.IPv4Len + wire.TCPLen, TTL: 64,
				Proto: wire.ProtoTCP, Src: clientIP, Dst: ServerIP})
			wire.PutTCP(frame[wire.EthLen+wire.IPv4Len:], wire.TCP{SrcPort: 5000, DstPort: 80,
				Seq: 2, Flags: wire.FlagACK, Window: 8192}, clientIP, ServerIP, nil)
			m := msg.FromBytes(srv.K.KernelOwner(), frame)
			defer m.Free()
			if allocs := testing.AllocsPerRun(100, func() {
				if got, _ := srv.Paths.Demux("eth", m); got != p {
					t.Fatalf("demux found %v, want the active path", got)
				}
			}); allocs != 0 {
				t.Fatalf("established-path demux allocates %.1f times per frame", allocs)
			}
		})
	}
}
