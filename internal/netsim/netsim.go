// Package netsim simulates the experimental network of Figure 7: a
// 100 Mbps Ethernet hub connecting the web server, the QoS receiver and
// the SYN attacker, and a store-and-forward switch carrying the client
// and CGI-attacker stations, bridged onto the hub. Frames serialize at
// link speed (the dominant network effect at these document sizes) and
// experience propagation delay; the hub is a single shared medium, the
// switch gives each port its own full-duplex link.
package netsim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/lib"
	"repro/internal/sim"
)

// MAC is a 48-bit Ethernet address in the low bits.
type MAC uint64

// Broadcast is the all-ones Ethernet broadcast address.
const Broadcast MAC = 0xFFFFFFFFFFFF

// String renders the address in colon-hex.
//
//escort:coldpath diagnostic stringer, used by traces and tests
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
		byte(m>>40), byte(m>>32), byte(m>>24), byte(m>>16), byte(m>>8), byte(m))
}

// Frame is a raw Ethernet frame (header included in Data). A frame
// handed to Rx is valid only for the duration of the call: its Data is
// a recycled wire buffer that another frame reuses once every medium
// holding it has delivered.
type Frame struct {
	Dst, Src MAC
	Data     []byte

	w *wireBuf // the wire buffer Data lives in, for a frame on the wire
}

// MaxFrame is the Ethernet maximum frame size (1500 MTU + 14 header).
const MaxFrame = 1514

// Attacher is anything a NIC can attach to (hub or switch).
type Attacher interface {
	Attach(n *NIC)
}

// Segment is the transmission interface a NIC sends through; attaching
// to a hub binds the hub itself, attaching to a switch binds a per-port
// segment.
type Segment interface {
	Send(src *NIC, f Frame)
}

// NIC is a simulated network interface. Rx runs as the attached node's
// interrupt handler, inside the simulation event that delivers the
// frame.
type NIC struct {
	Name string
	Mac  MAC
	seg  Segment

	// Rx is invoked for each frame addressed to this NIC (or broadcast).
	Rx func(f Frame)

	// Counters.
	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64
	TxDropped          uint64

	promisc bool
}

// NewNIC creates a NIC with the given name and address.
//
//escort:coldpath constructor, topology setup
func NewNIC(name string, mac MAC) *NIC {
	return &NIC{Name: name, Mac: mac}
}

// Send transmits a frame onto the attached segment. Oversized frames are
// dropped (and counted), as the hardware would; it reports whether the
// frame made it onto the wire so the driver layer can attribute the
// drop to the owner that produced the frame. Send copies f.Data onto
// the wire, so the caller keeps its buffer; a frame already on the wire
// (a bridge re-sending what it received) shares its wire buffer instead.
func (n *NIC) Send(f Frame) bool {
	if n.seg == nil {
		panic("netsim: send on detached NIC " + n.Name)
	}
	if len(f.Data) > MaxFrame {
		n.TxDropped++
		return false
	}
	n.TxFrames++
	n.TxBytes += uint64(len(f.Data))
	w := f.wire()
	f.Data, f.w = w.b, w
	n.seg.Send(n, f)
	w.release()
	return true
}

// Segment returns the segment the NIC is attached to (nil if detached).
func (n *NIC) Segment() Segment { return n.seg }

// SetSegment rebinds the NIC's transmission segment. Fault injectors use
// it to interpose on delivery: attach normally, then wrap the segment
// the attacher installed.
func (n *NIC) SetSegment(s Segment) { n.seg = s }

func (n *NIC) deliver(f Frame) {
	if f.Dst != n.Mac && f.Dst != Broadcast && !n.promisc {
		return
	}
	n.RxFrames++
	n.RxBytes += uint64(len(f.Data))
	if n.Rx != nil {
		n.Rx(f)
	}
}

// wireBuf is the refcounted storage of a frame on the wire: the sending
// NIC and each medium carrying the frame hold a reference, and the last
// release returns the buffer to its pool. Every buffer belongs to one
// simulation at a time, so the count needs no atomics; the sync.Pool
// lets the parallel sweep runner's simulations share the package.
type wireBuf struct {
	refs int
	b    []byte // the frame's bytes
}

var wireBufs sync.Pool

// wire returns a wire buffer holding f's bytes, with a reference for
// the caller: a frame already on the wire shares its buffer, any other
// frame is copied into a recycled one.
func (f *Frame) wire() *wireBuf {
	if w := f.w; w != nil && len(f.Data) == len(w.b) && len(f.Data) > 0 && &f.Data[0] == &w.b[0] {
		w.refs++
		return w
	}
	if len(f.Data) > MaxFrame {
		panic("netsim: oversized frame on the wire")
	}
	w, _ := wireBufs.Get().(*wireBuf)
	if w == nil || cap(w.b) < len(f.Data) {
		w = newWireBuf(len(f.Data))
	}
	w.refs = 1
	w.b = w.b[:len(f.Data)]
	copy(w.b, f.Data)
	return w
}

// newWireBuf allocates a buffer that fits an n-byte frame. It is sized
// to the frame, not to MaxFrame, because topology setup sends a few
// small frames into buffers that are never recycled if the simulation
// never runs. A pooled buffer too small for the frame is dropped, so the
// pool keeps buffers as large as the frames they carry.
//
//escort:coldpath wire-buffer pool miss or undersized pooled buffer: bounded by the frames in flight at the peak, then recycled
func newWireBuf(n int) *wireBuf {
	return &wireBuf{b: make([]byte, 0, n)}
}

// release drops one reference, recycling the buffer after the last.
func (w *wireBuf) release() {
	w.refs--
	if w.refs == 0 {
		w.b = w.b[:0]
		wireBufs.Put(w)
	}
}

// receiver is what sits at the far end of a medium: the hub's stations,
// a switch's forwarding logic, or a switch port's station.
type receiver interface {
	receive(src *NIC, f Frame)
}

// receive implements receiver for a switch port's station side.
func (n *NIC) receive(_ *NIC, f Frame) { n.deliver(f) }

// flight is one frame on a medium, its Data in its wire buffer, and the
// NIC that sent it.
type flight struct {
	src *NIC
	f   Frame
}

// medium models one serialized transmission resource: a half-duplex
// shared wire (hub) or one direction of a switch port. A medium delivers
// in FIFO order (busyUntil is monotone and prop constant), so frames in
// flight wait in a ring and every delivery event runs the same
// callback, bound once at construction.
type medium struct {
	eng        *sim.Engine
	cyclesPer8 sim.Cycles // cycles per byte (8 bits)
	prop       sim.Cycles
	busyUntil  sim.Cycles
	to         receiver
	inflight   lib.Ring[flight]
	arrive     func()
}

// init sets up a medium, held by value in its hub or switch port,
// delivering to to. Its one delivery callback is bound here, so
// transmit allocates nothing.
//
//escort:coldpath constructor, topology setup
func (m *medium) init(eng *sim.Engine, bitsPerSec uint64, prop sim.Cycles, to receiver) {
	if bitsPerSec == 0 {
		panic("netsim: zero bandwidth")
	}
	cyclesPerByte := sim.Cycles(uint64(sim.CyclesPerSecond) * 8 / bitsPerSec)
	if cyclesPerByte == 0 {
		cyclesPerByte = 1
	}
	*m = medium{eng: eng, cyclesPer8: cyclesPerByte, prop: prop, to: to, inflight: lib.MakeRing[flight](math.MaxInt)}
	m.arrive = m.deliverNext
}

// transmit puts f on the medium: it arrives at the receiver once the
// frame has serialized behind everything already queued, plus the
// propagation delay.
func (m *medium) transmit(src *NIC, f Frame) {
	now := m.eng.Now()
	start := m.busyUntil
	if start < now {
		start = now
	}
	txTime := sim.Cycles(len(f.Data)) * m.cyclesPer8
	m.busyUntil = start + txTime
	w := f.wire()
	f.Data, f.w = w.b, w
	_ = m.inflight.Enqueue(flight{src: src, f: f})
	m.eng.AtTime(m.busyUntil+m.prop, m.arrive)
}

// deliverNext hands the oldest frame in flight to the receiver.
func (m *medium) deliverNext() {
	fl, _ := m.inflight.Dequeue()
	m.to.receive(fl.src, fl.f)
	fl.f.w.release()
}

// Hub is a shared-medium repeater: every frame occupies the single
// 100 Mbps wire and reaches every attached NIC except the sender.
type Hub struct {
	med  medium
	nics []*NIC
}

// NewHub returns a hub with the given bandwidth and propagation delay.
//
//escort:coldpath constructor, topology setup
func NewHub(eng *sim.Engine, bitsPerSec uint64, prop sim.Cycles) *Hub {
	h := &Hub{}
	h.med.init(eng, bitsPerSec, prop, h)
	return h
}

// Attach implements Segment.
//
//escort:coldpath topology setup, once per NIC
func (h *Hub) Attach(n *NIC) {
	h.nics = append(h.nics, n)
	n.seg = h
}

// Send implements Segment.
func (h *Hub) Send(src *NIC, f Frame) { h.med.transmit(src, f) }

// receive implements receiver: a frame off the shared wire reaches every
// attached NIC except the sender.
func (h *Hub) receive(src *NIC, f Frame) {
	for _, n := range h.nics {
		if n != src {
			n.deliver(f)
		}
	}
}

// Switch is a store-and-forward learning switch: each port is a
// full-duplex link with its own serialization in each direction.
type Switch struct {
	eng   *sim.Engine
	bps   uint64
	prop  sim.Cycles
	ports []*swPort
	table map[MAC]*swPort
}

type swPort struct {
	nic     *NIC
	toNIC   medium // switch -> station
	fromNIC medium // station -> switch
	sw      *Switch
}

// NewSwitch returns a switch whose ports run at the given speed.
//
//escort:coldpath constructor, topology setup
func NewSwitch(eng *sim.Engine, bitsPerSec uint64, prop sim.Cycles) *Switch {
	return &Switch{eng: eng, bps: bitsPerSec, prop: prop, table: make(map[MAC]*swPort)}
}

// Attach implements Segment.
//
//escort:coldpath topology setup, once per NIC
func (s *Switch) Attach(n *NIC) {
	p := &swPort{nic: n, sw: s}
	p.toNIC.init(s.eng, s.bps, s.prop, n)
	p.fromNIC.init(s.eng, s.bps, s.prop, p)
	s.ports = append(s.ports, p)
	n.seg = portSegment{p}
}

type portSegment struct{ p *swPort }

// Send implements Segment: station -> switch, then forward.
func (ps portSegment) Send(src *NIC, f Frame) { ps.p.fromNIC.transmit(src, f) }

// receive implements receiver for the station -> switch direction.
func (p *swPort) receive(_ *NIC, f Frame) { p.sw.forward(p, f) }

func (s *Switch) forward(in *swPort, f Frame) {
	// Learn the source port; in steady state it is already known, and
	// a map read is cheaper than an assign.
	if s.table[f.Src] != in {
		s.table[f.Src] = in
	}
	if f.Dst != Broadcast {
		if out, ok := s.table[f.Dst]; ok {
			if out != in {
				out.toNIC.transmit(in.nic, f)
			}
			return
		}
	}
	// Flood unknown destinations and broadcasts.
	for _, out := range s.ports {
		if out == in {
			continue
		}
		out.toNIC.transmit(in.nic, f)
	}
}

// Bridge glues two segments together (the switch uplink into the hub in
// Figure 7). It forwards every frame from one side to the other; with a
// single bridge in the topology no loops can form.
type Bridge struct {
	a, b *NIC
}

// NewBridge creates the two bridge NICs and attaches them.
//
//escort:coldpath constructor, topology setup
func NewBridge(name string, segA, segB Attacher, macA, macB MAC) *Bridge {
	br := &Bridge{
		a: NewNIC(name+":a", macA),
		b: NewNIC(name+":b", macB),
	}
	br.a.SetPromiscuous()
	br.b.SetPromiscuous()
	segA.Attach(br.a)
	segB.Attach(br.b)
	br.a.Rx = func(f Frame) { br.b.Send(f) }
	br.b.Rx = func(f Frame) { br.a.Send(f) }
	return br
}

// SetPromiscuous makes the NIC receive every frame on its segment;
// bridges need frames not addressed to them.
func (n *NIC) SetPromiscuous() { n.promisc = true }
