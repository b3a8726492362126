package netsim

// Bytes sums the sizes of the queued packets.
func (f *fifo) Bytes() int {
	n := 0
	for i := 0; i < f.n; i++ {
		n += f.buf[(f.head+i)&(len(f.buf)-1)].Size
	}
	return n
}

// Live returns the number of packets checked out of the pool, for leak
// assertions.
func (pl *Pool) Live() int { return pl.live }

// Delay returns the link's propagation delay in seconds.
func (l *Link) Delay() float64 { return l.delay }

// Agent returns the agent bound to port, or nil.
func (n *Node) Agent(port int) Agent {
	for _, b := range n.ports {
		if b.port == port {
			return b.a
		}
	}
	return nil
}
