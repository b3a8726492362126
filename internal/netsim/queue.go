package netsim

import "tfrc/internal/sim"

// Queue is a link buffer discipline. Enqueue either accepts the packet or
// rejects it (drop decision); Dequeue hands the next packet to the link
// transmitter. Queues never own packet memory — the caller frees rejected
// packets.
type Queue interface {
	// Enqueue offers a packet; it returns false if the packet is dropped.
	Enqueue(p *Packet) bool
	// Dequeue removes and returns the next packet, or nil when empty.
	Dequeue() *Packet
	// Len returns the number of queued packets.
	Len() int
}

// fifoMinRing is the slot count a ring starts with.
const fifoMinRing = 8

// fifo is the shared ring-buffer backing for the queue disciplines. The
// ring is demand-sized: it starts at fifoMinRing slots and doubles when
// full, so its length is always a power of two (indexed by mask) and,
// because the disciplines refuse arrivals at their packet limit, never
// exceeds the next power of two at or above that limit. A queue that
// never backs up never pays for its limit.
type fifo struct {
	buf  []*Packet
	head int
	n    int
	mem  *sim.Carver[*Packet] // where rings come from; nil for a queue built outside a Network
}

// recycled returns an empty fifo on f's ring, cleared — how a queue slot
// keeps the ring it grew across Network.New — that cuts any larger ring
// it comes to need from mem.
func (f *fifo) recycled(mem *sim.Carver[*Packet]) fifo {
	clear(f.buf)
	return fifo{buf: f.buf, mem: mem}
}

func (f *fifo) push(p *Packet) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = p
	f.n++
}

// grow doubles the ring, unwrapping its contents to the front. It is the
// cold half of push, kept out of line so the allocation has one site
// however the disciplines' wrappers are inlined.
//
//go:noinline
func (f *fifo) grow() {
	grown := f.mem.Take(max(2*len(f.buf), fifoMinRing))
	n := copy(grown, f.buf[f.head:])
	copy(grown[n:], f.buf[:f.head])
	clear(f.buf)
	f.buf = grown
	f.head = 0
}

func (f *fifo) pop() *Packet {
	if f.n == 0 {
		return nil
	}
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return p
}

// DropTail is a FIFO queue with a fixed packet-count limit: arrivals that
// find the buffer full are dropped.
type DropTail struct {
	fifo
	limit int
}

// NewDropTail returns a DropTail queue holding at most limit packets.
func NewDropTail(limit int) *DropTail {
	if limit < 1 {
		panic("netsim: DropTail limit must be ≥ 1")
	}
	return &DropTail{limit: limit}
}

// newDropTail is the arena-backed variant used by the topology layer:
// the struct comes from the network's queue slab and keeps the ring a
// previous life of the slot grew, so a recycled network's queues are
// already as large as the last scenario needed.
func (nw *Network) newDropTail(limit int) *DropTail {
	if limit < 1 {
		panic("netsim: DropTail limit must be ≥ 1")
	}
	q := nw.dtSlab.Get()
	*q = DropTail{fifo: q.recycled(&nw.ringMem), limit: limit}
	return q
}

// Enqueue implements Queue.
func (q *DropTail) Enqueue(p *Packet) bool {
	if q.n >= q.limit {
		return false
	}
	q.push(p)
	return true
}

// Dequeue implements Queue.
func (q *DropTail) Dequeue() *Packet { return q.pop() }

// Len implements Queue.
func (q *DropTail) Len() int { return q.n }
