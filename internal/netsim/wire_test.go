package netsim

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// The closure model is the delivery scheme the per-medium rings
// replaced: every transmission scheduled its own closure over the
// frame. It is kept here as the oracle for TestDeliveryMatchesClosureModel.

type refMedium struct {
	eng                         *sim.Engine
	cyclesPer8, prop, busyUntil sim.Cycles
}

func newRefMedium(eng *sim.Engine, bitsPerSec uint64, prop sim.Cycles) *refMedium {
	return &refMedium{eng: eng, cyclesPer8: sim.Cycles(uint64(sim.CyclesPerSecond) * 8 / bitsPerSec), prop: prop}
}

func (m *refMedium) transmit(size int, deliver func()) {
	start := max(m.busyUntil, m.eng.Now())
	m.busyUntil = start + sim.Cycles(size)*m.cyclesPer8
	m.eng.AtTime(m.busyUntil+m.prop, deliver)
}

// own gives the closure model's frame its own bytes, as a sender that
// never reused its buffer used to.
func own(f Frame) Frame {
	return Frame{Dst: f.Dst, Src: f.Src, Data: append([]byte(nil), f.Data...)}
}

type refHub struct {
	med  *refMedium
	nics []*NIC
}

func (h *refHub) Attach(n *NIC) { h.nics = append(h.nics, n); n.SetSegment(h) }

func (h *refHub) Send(src *NIC, f Frame) {
	f = own(f)
	h.med.transmit(len(f.Data), func() {
		for _, n := range h.nics {
			if n != src {
				n.deliver(f)
			}
		}
	})
}

type refSwitch struct {
	eng   *sim.Engine
	bps   uint64
	prop  sim.Cycles
	ports []*refPort
	table map[MAC]*refPort
}

type refPort struct {
	nic            *NIC
	toNIC, fromNIC *refMedium
	sw             *refSwitch
}

func (s *refSwitch) Attach(n *NIC) {
	p := &refPort{nic: n, toNIC: newRefMedium(s.eng, s.bps, s.prop), fromNIC: newRefMedium(s.eng, s.bps, s.prop), sw: s}
	s.ports = append(s.ports, p)
	n.SetSegment(refPortSeg{p})
}

type refPortSeg struct{ p *refPort }

func (ps refPortSeg) Send(_ *NIC, f Frame) {
	f = own(f)
	ps.p.fromNIC.transmit(len(f.Data), func() { ps.p.sw.forward(ps.p, f) })
}

func (s *refSwitch) forward(in *refPort, f Frame) {
	s.table[f.Src] = in
	if f.Dst != Broadcast {
		if out, ok := s.table[f.Dst]; ok {
			if out != in {
				out.toNIC.transmit(len(f.Data), func() { out.nic.deliver(f) })
			}
			return
		}
	}
	for _, out := range s.ports {
		if out != in {
			out := out
			out.toNIC.transmit(len(f.Data), func() { out.nic.deliver(f) })
		}
	}
}

// dupAttacher interposes like the fault injector's duplication: every
// third frame sent through any NIC it attached goes out twice.
type dupAttacher struct {
	under Attacher
	n     *int
}

func (d dupAttacher) Attach(nic *NIC) {
	d.under.Attach(nic)
	nic.SetSegment(dupSegment{inner: nic.Segment(), n: d.n})
}

type dupSegment struct {
	inner Segment
	n     *int
}

func (s dupSegment) Send(src *NIC, f Frame) {
	s.inner.Send(src, f)
	if *s.n++; *s.n%3 == 0 {
		s.inner.Send(src, f)
	}
}

// figure7 builds a hub and a switch joined by a bridge, three stations
// on each, every attachment wrapped in duplication. Each delivery is
// logged with its time, receiver and bytes.
func figure7(eng *sim.Engine, hub, sw Attacher, log *[]string) []*NIC {
	var dups int
	hub, sw = dupAttacher{hub, &dups}, dupAttacher{sw, &dups}
	NewBridge("uplink", hub, sw, 0xFE, 0xFF)
	nics := make([]*NIC, 6)
	for i := range nics {
		n := NewNIC(fmt.Sprintf("n%d", i), MAC(i+1))
		n.Rx = func(f Frame) { *log = append(*log, fmt.Sprintf("%d %s %x", eng.Now(), n.Name, f.Data)) }
		if i < 3 {
			hub.Attach(n)
		} else {
			sw.Attach(n)
		}
		nics[i] = n
	}
	return nics
}

// TestDeliveryMatchesClosureModel: arbitrary traffic across hub, bridge
// and switch — unicast, flooded unknown destinations and broadcast,
// with duplicated frames — reaches the same NICs at the same times, in
// the same order, with the same bytes as under the closure model.
// Senders rewrite their one buffer after every Send.
func TestDeliveryMatchesClosureModel(t *testing.T) {
	type send struct {
		At        uint16
		From, To  uint8
		Size, Tag uint16
	}
	run := func(sends []send, build func(*sim.Engine, *[]string) []*NIC) []string {
		eng := sim.New()
		var log []string
		nics := build(eng, &log)
		bufs := make([][]byte, len(nics))
		for i := range bufs {
			bufs[i] = make([]byte, MaxFrame)
		}
		for _, s := range sends {
			s := s
			eng.AtTime(sim.Cycles(s.At)*100, func() {
				from := int(s.From) % len(nics)
				dst := Broadcast
				if to := int(s.To) % 8; to < len(nics) {
					dst = MAC(to + 1)
				} else if to == len(nics) {
					dst = 0x77 // never attached: flooded
				}
				b := bufs[from][:1+int(s.Size)%MaxFrame]
				for i := range b {
					b[i] = byte(int(s.Tag) + i)
				}
				nics[from].Send(Frame{Dst: dst, Src: nics[from].Mac, Data: b})
				clear(b)
			})
		}
		eng.Drain(1 << 40)
		return log
	}
	rings := func(eng *sim.Engine, log *[]string) []*NIC {
		return figure7(eng, NewHub(eng, mbps100, 300), NewSwitch(eng, mbps100, 300), log)
	}
	closures := func(eng *sim.Engine, log *[]string) []*NIC {
		hub := &refHub{med: newRefMedium(eng, mbps100, 300)}
		sw := &refSwitch{eng: eng, bps: mbps100, prop: 300, table: map[MAC]*refPort{}}
		return figure7(eng, hub, sw, log)
	}
	check := func(sends []send) bool {
		got, want := run(sends, rings), run(sends, closures)
		if len(got) != len(want) {
			t.Logf("%d deliveries, closure model %d", len(got), len(want))
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("delivery %d: %.80s, closure model %.80s", i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestWireBufferHeldUntilDelivered: frames queued behind each other on
// one medium, and fanned out to several, keep their bytes until the
// last medium holding them delivers, however many frames are sent (and
// buffers recycled) meanwhile.
func TestWireBufferHeldUntilDelivered(t *testing.T) {
	eng := sim.New()
	hub := NewHub(eng, mbps100, 1000)
	sw := NewSwitch(eng, mbps100, 1000)
	NewBridge("uplink", hub, sw, 0xFE, 0xFF)
	src := NewNIC("src", 1)
	hub.Attach(src)
	bad := 0
	for i, seg := range []Attacher{hub, sw, sw} {
		n := NewNIC("dst", MAC(10+i))
		n.Rx = func(f Frame) {
			for _, b := range f.Data[1:] {
				if b != f.Data[0] {
					bad++
					return
				}
			}
			if f.w == nil || f.w.refs < 1 {
				bad++
			}
		}
		seg.Attach(n)
	}
	buf := make([]byte, 600)
	for round := 0; round < 20; round++ {
		for i := 0; i < 50; i++ {
			for j := range buf {
				buf[j] = byte(round*50 + i)
			}
			src.Send(Frame{Dst: Broadcast, Src: 1, Data: buf})
		}
		eng.Drain(eng.Now() + sim.CyclesPerMillisecond) // deliver some, leave the rest in flight
	}
	eng.Drain(1 << 40)
	if bad != 0 {
		t.Fatalf("%d deliveries carried bytes overwritten in flight", bad)
	}
}

// TestSendDeliveryAllocatesNothing: in steady state a full-size frame
// from a switch station, over the bridge, to a hub station allocates
// nothing on the host.
func TestSendDeliveryAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	eng := sim.New()
	hub := NewHub(eng, mbps100, 3000)
	sw := NewSwitch(eng, mbps100, 3000)
	NewBridge("uplink", hub, sw, 0xFE, 0xFF)
	src, dst := NewNIC("client", 1), NewNIC("server", 2)
	src.Rx = func(Frame) {}
	got := 0
	dst.Rx = func(Frame) { got++ }
	sw.Attach(src)
	hub.Attach(dst)
	f := Frame{Dst: 2, Src: 1, Data: bytes.Repeat([]byte{0x5A}, MaxFrame)}
	step := func() {
		src.Send(f)
		eng.Drain(eng.Now() + sim.CyclesPerMillisecond)
	}
	for i := 0; i < 10; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("Send → delivery allocates %.1f times per frame", allocs)
	}
	if got != 111 {
		t.Fatalf("delivered %d frames, want 111", got)
	}
}

// raceEnabled reports whether the test binary runs under the race
// detector.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
