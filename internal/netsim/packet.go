// Package netsim is a packet-level network simulator in the style of ns-2:
// nodes exchange packets over simplex links with configurable bandwidth,
// propagation delay, and queue discipline (DropTail or RED). Static
// shortest-path routes are computed once per topology. Taps on links and
// per-flow monitors provide the measurement substrate for the experiments.
package netsim

import (
	"fmt"

	"tfrc/internal/sim"
)

// NodeID identifies a node within one Network.
type NodeID int

// PacketKind labels what a packet carries. The simulator itself only cares
// about Size; kinds exist for monitors and for agents demultiplexing.
type PacketKind uint8

// Packet kinds.
const (
	KindData     PacketKind = iota // transport payload (TCP or TFRC data)
	KindAck                        // TCP cumulative/selective acknowledgment
	KindFeedback                   // TFRC receiver report
	KindCBR                        // constant/ON-OFF bit-rate background
)

func (k PacketKind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindFeedback:
		return "feedback"
	case KindCBR:
		return "cbr"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// SackBlock is a half-open range [Start, End) of selectively acknowledged
// sequence numbers carried on an ACK.
type SackBlock struct {
	Start, End int64
}

// MaxSackBlocks bounds the SACK information carried per ACK, mirroring the
// three-block limit of a standard TCP options field.
const MaxSackBlocks = 3

// Packet is the unit of transmission. Like an ns-2 packet it carries the
// union of all protocol headers as value fields so the hot path never
// allocates; agents use only the fields of their protocol. Packets are
// recycled through a Pool — holding a *Packet after handing it to the
// network or the pool is a bug.
type Packet struct {
	Kind PacketKind
	Flow int   // global flow identifier, used by monitors
	Size int   // bytes on the wire, including headers
	Seq  int64 // data sequence number, in packets (ns-2 convention)

	Src, Dst         NodeID
	SrcPort, DstPort int

	SendTime float64 // time the packet left the origin

	// TCP header fields.
	Ack      int64 // cumulative ACK: next expected sequence number
	Sack     [MaxSackBlocks]SackBlock
	NumSack  int
	EchoTime float64 // timestamp echoed by the receiver (RTTM)

	// TFRC data field: the sender's current RTT estimate, which the
	// receiver needs to aggregate losses within one round-trip into a
	// single loss event (§3.5.1).
	SenderRTT float64

	// TFRC feedback fields (paper §3.1: the receiver reports the loss
	// event rate and the rate at which data arrived, echoing the newest
	// data packet's timestamp plus its residence time at the receiver).
	LossEventRate float64 // p
	RecvRate      float64 // X_recv in bytes/sec over the last RTT
	EchoSeq       int64   // sequence of the most recent data packet
	EchoDelay     float64 // time the echoed packet spent at the receiver

	hops      int      // forwarding count, guards against routing loops
	link      *Link    // link currently carrying the packet (set by Link.Send)
	net       *Network // owning network (set by Network.NewPacket)
	deliverAt float64  // delivery time, fixed when serialization starts
	impHeld   bool     // already rolled its impairment dice at this link
}

// SendFn is a shared scheduler callback that injects the packet at its
// source node. Agents that schedule (possibly jittered) departures pass
// it with the packet as the event arg, so pacing builds no closures.
func SendFn(x any) {
	p := x.(*Packet)
	p.net.nodes[p.Src].Send(p)
}

// Pool recycles packets. It is deliberately not safe for concurrent use:
// the simulator is single-threaded and the pool sits on the hot path.
// The packets live in a slab the owning Network keeps across Release/New
// cycles, zeroed whenever they are not checked out, so a recycled
// network hands the same ones out again without touching the allocator.
type Pool struct {
	slab sim.Slab[Packet]
	live int
}

// reset reclaims every packet, checked out or not, zeroing what was
// issued since the last reset (used when a Network is recycled).
func (pl *Pool) reset() {
	pl.live = 0
	pl.slab.Each(func(p *Packet) { *p = Packet{} })
	pl.slab.Reset()
}

// Get returns a zeroed packet.
func (pl *Pool) Get() *Packet {
	pl.live++
	return pl.slab.Get()
}

// Put returns a packet to the pool.
func (pl *Pool) Put(p *Packet) {
	if p == nil {
		return
	}
	pl.live--
	*p = Packet{}
	pl.slab.Put(p)
}
