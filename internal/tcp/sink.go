package tcp

import "tfrc/internal/netsim"

// Sink is a TCP receiver: it acknowledges every data packet with the
// cumulative ACK, up to three SACK blocks describing out-of-order data,
// and a timestamp echo for the sender's RTT sampling. It has an infinite
// receive window.
type Sink struct {
	net     *netsim.Network
	node    *netsim.Node // arena co-tenant: node outlives the sink on the same scheduler
	ackSize int
	flow    int

	received rangeSet // range backing kept by Restart and recycled by NewSink
	next     int64    // cumulative ACK: lowest sequence not yet received

	// Delivered counts in-order goodput in packets; Received counts all
	// arriving data packets including duplicates.
	Delivered int64
	Received  int64
}

// NewSink attaches a sink to node:port. ACKs carry the given flow id (the
// data flow's id, so monitors can pair them). Like senders, sinks are
// drawn from the scheduler's agent arena. In-order data never touches the
// received-range set: the first arrival ahead of a hole cuts its backing
// from the arena's range carver, and the backing then stays with the sink
// across Restart and with the arena slot across reuse.
func NewSink(nw *netsim.Network, node *netsim.Node, port, flow, ackSize int) *Sink {
	if ackSize == 0 {
		ackSize = 40
	}
	s := arenaOf(nw.Scheduler()).sinks.Get()
	*s = Sink{net: nw, node: node, ackSize: ackSize, flow: flow, received: s.received}
	s.Restart()
	node.Attach(port, s)
	return s
}

// Restart readies the sink, still bound, for a new transfer, as NewSink
// would on the same slot: its cumulative ACK, counters and received
// ranges start over, and the ranges keep their backing.
func (s *Sink) Restart() {
	s.received.clear()
	s.next, s.Delivered, s.Received = 0, 0, 0
}

// Recv handles one data packet and emits the corresponding ACK.
func (s *Sink) Recv(p *netsim.Packet) {
	if p.Kind != netsim.KindData {
		s.net.Free(p)
		return
	}
	s.Received++
	if p.Seq == s.next && len(s.received.r) == 0 {
		// In order with nothing held above it — every packet of a flow
		// that sees no hole: the range set is not consulted, let alone
		// grown.
		s.next++
		s.Delivered++
	} else if p.Seq >= s.next && !s.received.contains(p.Seq) {
		s.received.add(&arenaOf(s.net.Scheduler()).ranges, p.Seq, p.Seq+1)
		if p.Seq == s.next {
			old := s.next
			s.next = s.received.firstGapAtOrAfter(s.next)
			s.Delivered += s.next - old
			s.received.dropBelow(s.next)
		}
	}

	ack := s.net.NewPacket()
	ack.Kind = netsim.KindAck
	ack.Flow = s.flow
	ack.Size = s.ackSize
	ack.Ack = s.next
	ack.EchoTime = p.SendTime
	ack.Src = s.node.ID
	ack.Dst = p.Src
	ack.SrcPort = p.DstPort
	ack.DstPort = p.SrcPort
	var sacks [netsim.MaxSackBlocks]srange
	for _, rg := range sacks[:s.received.newestInto(sacks[:])] {
		if rg.end <= s.next {
			continue
		}
		ack.Sack[ack.NumSack] = netsim.SackBlock{Start: rg.start, End: rg.end}
		ack.NumSack++
	}
	s.net.Free(p)
	s.node.Send(ack)
}
