package wire

import (
	"time"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
)

// The simulator driver: a connection between two named hosts of a netsim
// topology, in virtual time. Each endpoint's frames cross the simulated
// links as ordinary netsim packets of the frame's size — so every queue
// and every fault acts on them as on any other traffic — while
// the encoded bytes wait in the sending port's frame ring under the
// packet's sequence number. A copy made by a duplicate impairment
// carries the same number and so decodes the same datagram twice.

// NewSimPair places a wire connection on a built topology: the sender on
// host src streams to the receiver on host dst. id is the connection's
// port on both hosts and its flow ID at link monitors. source may be nil
// (zero padding). Nothing is sent until the sender's Run is called, from
// a scheduler event or before the scheduler starts.
func NewSimPair(t *netsim.Topology, src, dst string, id int, source Source, cfg Config) (*Sender, *Receiver) {
	s, r, _, _ := simPair(t, src, dst, id, source, cfg)
	return s, r
}

// simPair is NewSimPair, also returning the two ports.
func simPair(t *netsim.Topology, src, dst string, id int, source Source, cfg Config) (*Sender, *Receiver, *simPort, *simPort) {
	nw := t.Network()
	s, r := newSender(source, cfg), newReceiver(cfg)
	sp := &simPort{nw: nw, node: t.Lookup(src), id: id, kind: netsim.KindData, deliver: s.onDatagram, ring: make([][]byte, frameWindow)}
	rp := &simPort{nw: nw, node: t.Lookup(dst), id: id, kind: netsim.KindFeedback, deliver: r.onDatagram, ring: make([][]byte, frameWindow)}
	sp.peer, rp.peer = rp, sp
	sp.node.Attach(id, sp)
	rp.node.Attach(id, rp)
	clock := simClock{nw.Scheduler()}
	s.attach(clock, sp.send)
	r.attach(clock, rp.send)
	return s, r, sp, rp
}

// frameWindow is how many of a port's latest frames stay decodable. A
// frame still in the network when the port has sent frameWindow more is
// lost — 8 Mbit in flight at 1000-byte packets, far beyond any queue plus
// bandwidth-delay product the endpoints are run over.
const frameWindow = 1 << 10

// simPort is one end of a simulated connection: a netsim agent on a host
// port, and the ring of encoded frames it has sent.
type simPort struct {
	nw   *netsim.Network
	node *netsim.Node
	peer *simPort
	id   int
	kind netsim.PacketKind // how monitors see this port's frames

	deliver func([]byte) // the endpoint's onDatagram

	ring    [][]byte // frameWindow slots; frame seq lives in ring[seq%frameWindow]
	next    int64    // sequence number of the next frame
	expired int64    // arrivals whose frame had left the peer's ring
}

// send is the endpoint's datagram seam: the frame enters the network at
// the port's host, addressed to the peer port.
func (p *simPort) send(b []byte) {
	slot := &p.ring[p.next%frameWindow]
	*slot = append((*slot)[:0], b...)

	pkt := p.nw.NewPacket()
	pkt.Kind, pkt.Flow, pkt.Size = p.kind, p.id, len(b)
	pkt.Seq = p.next
	pkt.Src, pkt.SrcPort = p.node.ID, p.id
	pkt.Dst, pkt.DstPort = p.peer.node.ID, p.id
	p.next++
	p.node.Send(pkt)
}

// Recv implements netsim.Agent: one of the peer's frames arrived.
func (p *simPort) Recv(pkt *netsim.Packet) {
	seq := pkt.Seq
	p.nw.Free(pkt)
	from := p.peer
	if seq < from.next-frameWindow {
		p.expired++
		return
	}
	p.deliver(from.ring[seq%frameWindow])
}

// simEpoch is the wall-clock reading of simulated time zero; only
// differences of it ever matter.
var simEpoch = time.Unix(0, 0)

// simClock is the scheduler's virtual clock.
type simClock struct{ s *sim.Scheduler }

func (c simClock) Now() time.Time { return simEpoch.Add(dur(c.s.Now())) }

func (c simClock) NewTimer(f func()) Timer {
	t := new(simTimer)
	t.t.Init(c.s, f)
	return t
}

type simTimer struct{ t sim.Timer }

func (t *simTimer) Reset(d time.Duration) { t.t.Reset(d.Seconds()) }
func (t *simTimer) Stop()                 { t.t.Stop() }
