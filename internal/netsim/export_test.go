package netsim

// Bytes sums the sizes of the queued packets.
func (f *fifo) Bytes() int {
	n := 0
	for i := 0; i < f.n; i++ {
		n += f.buf[(f.head+i)&(len(f.buf)-1)].Size
	}
	return n
}

// PTC returns the configured drain rate in packets per second.
func (q *RED) PTC() float64 { return q.ptc }

// AvgQueue returns the current EWMA queue estimate in packets.
func (q *RED) AvgQueue() float64 { return q.avg }

// RouteDrops returns how many packets were dropped for lack of a route
// while the network was partitioned by failed links.
func (nw *Network) RouteDrops() int64 { return nw.routeDrops }

// Live returns the number of packets checked out of the pool, for leak
// assertions.
func (pl *Pool) Live() int { return pl.live }

// Delay returns the link's propagation delay in seconds.
func (l *Link) Delay() float64 { return l.delay }

// Agent returns the agent bound to port, or nil.
func (n *Node) Agent(port int) Agent {
	if port < 0 || port >= len(n.ports) {
		return nil
	}
	return n.ports[port]
}
