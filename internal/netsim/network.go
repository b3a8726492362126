package netsim

import (
	"fmt"

	"tfrc/internal/sim"
)

// Agent consumes packets delivered to a (node, port) binding. An agent
// takes ownership of packets passed to Recv and must return them to the
// network's pool once done.
type Agent interface {
	Recv(p *Packet)
}

// adjacency is one outbound link of a node, kept sorted by neighbor ID so
// route computation visits neighbors deterministically without building
// and sorting scratch slices.
type adjacency struct {
	to NodeID
	l  *Link
}

// Node is a network element: hosts run agents on ports, routers simply
// forward. A packet addressed to the node is delivered to the agent bound
// to its destination port; anything else is forwarded along the static
// route toward its destination. Only the agent bound to a port unbinds it.
type Node struct {
	ID    NodeID
	net   *Network
	links []adjacency // sorted by neighbor ID
	route []*Link     // destination NodeID → next-hop link

	// ports is the delivery table: ports[port] is the bound agent or
	// nil, so delivery is one index. It reaches the highest port bound
	// since the node was made, so callers number a node's ports densely
	// from 1, as the scenario builder does.
	ports []Agent
}

// Attach binds an agent to a local port. Binding a negative or an
// already bound port panics.
func (n *Node) Attach(port int, a Agent) {
	if port < 0 {
		panic(fmt.Sprintf("netsim: node %d port %d is negative", n.ID, port))
	}
	if old := len(n.ports); port >= old {
		// A recycled node slot's table may still hold a previous
		// scenario's agents beyond its length: the ports skipped over
		// must read unbound.
		n.ports = n.net.tabMem.Reserve(n.ports, port+1)[:port+1]
		clear(n.ports[old:port])
	} else if n.ports[port] != nil {
		panic(fmt.Sprintf("netsim: node %d port %d already bound", n.ID, port))
	}
	n.ports[port] = a
}

// Detach unbinds port if a is the agent bound there, and otherwise does
// nothing, so an agent never unbinds another's port.
func (n *Node) Detach(port int, a Agent) {
	if port >= 0 && port < len(n.ports) && n.ports[port] == a {
		n.ports[port] = nil
	}
}

// LinkTo returns the outbound link to a directly connected neighbor, or
// nil if the nodes are not adjacent.
func (n *Node) LinkTo(neighbor *Node) *Link {
	for _, ad := range n.links {
		if ad.to == neighbor.ID {
			return ad.l
		}
	}
	return nil
}

// Send hands a packet to the node: one addressed to it goes to the agent
// bound to its destination port, anything else is forwarded. Local agents
// inject their packets here, and links deliver theirs.
func (n *Node) Send(p *Packet) {
	if p.Dst == n.ID {
		n.deliver(p)
		return
	}
	n.forward(p)
}

func (n *Node) deliver(p *Packet) {
	if port := p.DstPort; port >= 0 && port < len(n.ports) {
		if a := n.ports[port]; a != nil {
			a.Recv(p)
			return
		}
	}
	// No consumer: silently discard, as a real host would.
	n.net.pool.Put(p)
}

const maxHops = 64

func (n *Node) forward(p *Packet) {
	p.hops++
	if p.hops > maxHops {
		panic(fmt.Sprintf("netsim: packet flow=%d exceeded %d hops (routing loop?)", p.Flow, maxHops))
	}
	if int(p.Dst) >= len(n.route) || n.route[p.Dst] == nil {
		if n.net.partitioned {
			// RecomputeRoutes left this destination unreachable: drop at
			// the forwarding node, as a router with no FIB entry would.
			n.net.routeDrops++
			n.net.pool.Put(p)
			return
		}
		panic(fmt.Sprintf("netsim: node %d has no route to %d", n.ID, p.Dst))
	}
	n.route[p.Dst].Send(p)
}

// bfsHop is BuildRoutes scratch: a frontier node plus the first hop that
// reached it.
type bfsHop struct {
	node  *Node
	first *Link
}

// Network owns the topology, the packet pool, and the scheduler binding.
//
// All working memory — node, link and queue structs, route tables,
// packets, and route-computation scratch — is slab-allocated on the
// Network, which itself lives in its scheduler's arena and survives
// Release/New and Scheduler.Reset cycles. The slabs hand the same slots
// out in the same order every time, and a slot keeps what its last
// tenant grew (a node's port table, a queue's ring), so storage is sized
// by demand — a cold cell pays for what it uses — and sweep cells that
// build thousands of short-lived networks stop paying setup allocations
// once the first has grown.
type Network struct {
	sched      *sim.Scheduler
	pool       Pool    // the packet slab, zeroed and reissued by New
	nodes      []*Node // node headers live in nodeSlab; this index is recycled backing
	nominalPkt int     // mean packet size (bytes) for capacity-aware queues

	nodeSlab sim.Slab[Node]
	linkSlab sim.Slab[Link]
	dtSlab   sim.Slab[DropTail]   // queue structs and their rings are recycled in place across scenarios
	redSlab  sim.Slab[RED]        // queue structs and their rings are recycled in place across scenarios
	impSlab  sim.Slab[linkImpair] // fault blocks of impaired links, reissued by New; their rng is the scheduler's own

	// nowFn is the clock closure handed to capacity-aware queues. It
	// captures the (stable) Network rather than the current scheduler, so
	// it is built once per Network lifetime instead of once per queue.
	nowFn func() float64 // built once per Network lifetime; captures only the Network itself

	routeSlab []*Link // n*n next-hop table, partitioned per node

	// What is sized per node or per queue rather than per network is cut
	// from these: a cold cell pays a few chunks, not an append chain per
	// node, and the slots keep their segments as they kept their slices.
	adjMem  sim.Carver[adjacency] // node slots retain the segments they took
	tabMem  sim.Carver[Agent]     // node slots retain the segments they took; Release scrubs them
	ringMem sim.Carver[*Packet]   // queue slots retain the rings they took
	tapMem  sim.Carver[Tap]       // link slots retain the segments they took; Release scrubs them

	visited []bool   // BuildRoutes scratch, value-only backing
	bfsQ    []bfsHop // BuildRoutes scratch; truncated after every build

	// partitioned records that the last RecomputeRoutes left some
	// destination without a next hop; forward then drops instead of
	// panicking. routeDrops counts packets lost that way.
	partitioned bool
	routeDrops  int64
}

// New returns an empty network driven by the given scheduler. Its
// backing memory comes from the scheduler's netsim arena: when the
// scheduler is recycled (Reset or a pool round-trip), the network — and
// all its slab storage — is handed out again, so sweep cells that build
// thousands of short-lived networks stop paying setup allocations.
func New(sched *sim.Scheduler) *Network {
	a := arenaOf(sched)
	nw := sim.Next(&a.networks)
	nw.sched = sched
	nw.nominalPkt = 1000
	nw.nodes = nw.nodes[:0]
	nw.nodeSlab.Reset()
	nw.linkSlab.Reset()
	nw.dtSlab.Reset()
	nw.redSlab.Reset()
	nw.impSlab.Reset()
	nw.partitioned = false
	nw.routeDrops = 0
	nw.pool.reset()
	if nw.nowFn == nil {
		nw.nowFn = func() float64 { return nw.sched.Now() }
	}
	return nw
}

// Release scrubs the network's outward references — agents bound to
// ports, tap closures over monitors and their series — so the recycled
// network does not pin the finished scenario's object graph while it
// waits in the scheduler's arena for the next New. The network, its
// nodes, links, queues, and every packet drawn from its pool must not be
// used afterwards. Calling Release is optional: the arena reclaims the
// memory at the next Scheduler.Reset either way.
func (nw *Network) Release() {
	nw.sched = nil
	nw.nodeSlab.Each(func(n *Node) {
		clear(n.ports[:cap(n.ports)])
		n.ports = n.ports[:0]
		n.route = nil
	})
	nw.linkSlab.Each(func(l *Link) {
		clear(l.taps[:cap(l.taps)])
		l.taps = l.taps[:0]
		l.imp = nil
		l.departing = nil
	})
	clear(nw.routeSlab)
}

// SetNominalPacketSize sets the mean packet size (bytes) used to convert
// link bandwidth into a drain rate for capacity-aware queue disciplines
// (RED's idle-time compensation). It applies to links connected after the
// call; scenarios carrying non-default packet sizes should set it before
// building their topology.
func (nw *Network) SetNominalPacketSize(bytes int) {
	if bytes <= 0 {
		panic("netsim: nominal packet size must be positive")
	}
	nw.nominalPkt = bytes
}

// Scheduler returns the driving scheduler.
func (nw *Network) Scheduler() *sim.Scheduler { return nw.sched }

// Now returns the current simulated time.
func (nw *Network) Now() float64 { return nw.sched.Now() }

// Pool returns the shared packet pool.
func (nw *Network) Pool() *Pool { return &nw.pool }

// allocNode hands out the next node struct from the slab, preserving
// any slice capacity a previous life of the struct grew.
func (nw *Network) allocNode() *Node {
	n := nw.nodeSlab.Get()
	n.links = n.links[:0]
	n.ports = n.ports[:0]
	n.route = nil
	return n
}

// allocLink hands out the next link struct from the slab.
func (nw *Network) allocLink() *Link {
	l := nw.linkSlab.Get()
	*l = Link{taps: l.taps[:0]}
	return l
}

// NewNode adds a node to the topology.
func (nw *Network) NewNode() *Node {
	n := nw.allocNode()
	n.ID = NodeID(len(nw.nodes))
	n.net = nw
	nw.nodes = append(nw.nodes, n)
	return n
}

// Nodes returns all nodes in creation order.
func (nw *Network) Nodes() []*Node { return nw.nodes }

// ptcSetter is implemented by capacity-aware queue disciplines that need
// their drain rate in packets/sec (RED's idle-time compensation).
type ptcSetter interface{ SetPTC(float64) }

// Connect joins a and b with a pair of simplex links sharing bandwidth
// (bits/sec) and propagation delay (seconds). Each direction gets its own
// queue from mkQueue. It returns the a→b and b→a links. Call BuildRoutes
// after the topology is complete.
func (nw *Network) Connect(a, b *Node, bw, delay float64, mkQueue func() Queue) (ab, ba *Link) {
	return nw.connect(a, b, bw, delay, mkQueue(), mkQueue())
}

// insertAdj inserts an adjacency keeping the slice sorted by neighbor ID.
func (nw *Network) insertAdj(adj []adjacency, to NodeID, l *Link) []adjacency {
	i := len(adj)
	for i > 0 && adj[i-1].to > to {
		i--
	}
	adj = append(nw.adjMem.Reserve(adj, len(adj)+1), adjacency{})
	copy(adj[i+1:], adj[i:])
	adj[i] = adjacency{to: to, l: l}
	return adj
}

// connect is Connect with the queues already constructed — the
// closure-free path the topology layer uses.
func (nw *Network) connect(a, b *Node, bw, delay float64, abQueue, baQueue Queue) (ab, ba *Link) {
	if bw <= 0 || delay < 0 {
		panic("netsim: link needs positive bandwidth and non-negative delay")
	}
	ab = nw.allocLink()
	ab.net, ab.to, ab.bw, ab.delay, ab.queue = nw, b, bw, delay, abQueue
	ba = nw.allocLink()
	ba.net, ba.to, ba.bw, ba.delay, ba.queue = nw, a, bw, delay, baQueue
	a.links = nw.insertAdj(a.links, b.ID, ab)
	b.links = nw.insertAdj(b.links, a.ID, ba)
	// Let capacity-aware disciplines know their drain rate.
	for _, l := range []*Link{ab, ba} {
		if s, ok := l.queue.(ptcSetter); ok {
			s.SetPTC(l.bw / (8 * float64(nw.nominalPkt)))
		}
	}
	return ab, ba
}

// BuildRoutes computes shortest-path (hop count) next-hop tables for every
// node with breadth-first search. It must be called after the last Connect
// and panics if the topology is disconnected. Route tables live in one
// n×n slab and the BFS scratch is reused across sources (and across
// Release/New cycles), so recomputing routes costs no per-source
// allocations.
func (nw *Network) BuildRoutes() {
	nw.buildRoutes(false)
}

// RecomputeRoutes rebuilds every next-hop table against the current link
// states, routing around links taken down with Link.SetDown — the
// simulator's stand-in for routing reconvergence after a failure.
// Destinations left unreachable get no next hop; packets addressed to
// them are dropped at the forwarding node (counted in routeDrops)
// instead of panicking. The BFS scratch of BuildRoutes is reused, so
// periodic recomputation allocates nothing.
func (nw *Network) RecomputeRoutes() {
	nw.buildRoutes(true)
}

func (nw *Network) buildRoutes(tolerateDown bool) {
	n := len(nw.nodes)
	if cap(nw.routeSlab) < n*n {
		nw.routeSlab = make([]*Link, n*n)
	}
	slab := nw.routeSlab[:n*n]
	clear(slab)
	if cap(nw.visited) < n {
		// A BFS queues each node at most once.
		nw.visited = make([]bool, n)
		nw.bfsQ = make([]bfsHop, 0, n)
	}
	nw.partitioned = false
	for _, src := range nw.nodes {
		src.route = slab[int(src.ID)*n : (int(src.ID)+1)*n]
		// BFS from src recording the first hop toward each destination.
		// Adjacencies are kept sorted by neighbor ID so equal-cost ties
		// break deterministically.
		visited := nw.visited[:n]
		for i := range visited {
			visited[i] = false
		}
		visited[src.ID] = true
		queue := nw.bfsQ[:0]
		for _, ad := range src.links {
			if ad.l.IsDown() {
				continue
			}
			visited[ad.to] = true
			src.route[ad.to] = ad.l
			queue = append(queue, bfsHop{nw.nodes[ad.to], ad.l})
		}
		for qi := 0; qi < len(queue); qi++ {
			h := queue[qi]
			for _, ad := range h.node.links {
				if !visited[ad.to] && !ad.l.IsDown() {
					visited[ad.to] = true
					src.route[ad.to] = h.first
					queue = append(queue, bfsHop{nw.nodes[ad.to], h.first})
				}
			}
		}
		nw.bfsQ = queue[:0]
		for id, ok := range visited {
			if !ok {
				if tolerateDown {
					nw.partitioned = true
					continue
				}
				panic(fmt.Sprintf("netsim: node %d unreachable from node %d", id, src.ID))
			}
		}
	}
}

// NewPacket draws a packet from the pool, pre-stamped with the current
// time as its send time.
func (nw *Network) NewPacket() *Packet {
	p := nw.pool.Get()
	p.SendTime = nw.sched.Now()
	p.net = nw
	return p
}

// Free returns a packet to the pool.
func (nw *Network) Free(p *Packet) { nw.pool.Put(p) }
