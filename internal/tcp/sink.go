package tcp

import "tfrc/internal/netsim"

// Sink is a TCP receiver: it acknowledges every data packet with the
// cumulative ACK, up to three SACK blocks describing out-of-order data,
// and a timestamp echo for the sender's RTT sampling. It has an infinite
// receive window.
type Sink struct {
	net      *netsim.Network
	node     *netsim.Node // arena co-tenant: node outlives the sink on the same scheduler
	ackSize  int
	flow     int
	released bool

	received rangeSet // range backing recycled by NewSink across arena reuse
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
// from the arena's range carver, and the backing then stays with the
// arena slot across reuse.
func NewSink(nw *netsim.Network, node *netsim.Node, port, flow, ackSize int) *Sink {
	if ackSize == 0 {
		ackSize = 40
	}
	s := arenaOf(nw.Scheduler()).sinks.Get()
	received := s.received.r[:0]
	*s = Sink{net: nw, node: node, ackSize: ackSize, flow: flow}
	s.received.r = received
	node.Attach(port, s)
	return s
}

// Release hands the sink back to its scheduler's agent arena for reuse
// by a later NewSink. The caller must have detached it from its port;
// the sink must not be used afterwards. Optional, like Sender.Release.
func (s *Sink) Release() {
	if s.released {
		return
	}
	s.released = true
	arenaOf(s.net.Scheduler()).sinks.Put(s)
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
