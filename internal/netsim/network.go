package netsim

import (
	"fmt"
	"slices"

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

// portBinding is one (port, agent) binding. The authoritative binding
// list; nodes with dense port numbering additionally maintain portTab, a
// flat port-indexed table, so delivery at a million bound ports is one
// slice index instead of a million-entry scan.
type portBinding struct {
	port int
	a    Agent
}

// Node is a network element: hosts run agents on ports, routers simply
// forward. A packet addressed to the node is delivered to the agent bound
// to its destination port; anything else is forwarded along the static
// route toward its destination.
type Node struct {
	ID    NodeID
	net   *Network
	links []adjacency // sorted by neighbor ID
	route []*Link     // destination NodeID → next-hop link
	ports []portBinding

	// portTab is the dense delivery table: portTab[port] is the bound
	// agent or nil. Maintained while the node's port numbering stays
	// dense (see portInsert); abandoned — falling back to the linear
	// scan — when a binding would make the table wastefully sparse.
	// Invariant: when non-empty it covers every bound port.
	portTab    []Agent
	portSparse bool // numbering judged sparse; stop maintaining portTab
}

// densePortLimit is the port number below which the dense table always
// grows; higher ports must stay within portSlack× the binding count.
const (
	densePortLimit = 64
	portSlack      = 4
)

// Attach binds an agent to a local port; binding a bound port panics.
func (n *Node) Attach(port int, a Agent) {
	var bound bool
	if tab := n.portTab; len(tab) > 0 {
		// The dense table covers every bound port, so a port outside it
		// is unbound: no walk of n.ports, which would make binding n
		// densely numbered flows on one node O(n²).
		bound = port >= 0 && port < len(tab) && tab[port] != nil
	} else {
		bound = slices.ContainsFunc(n.ports, func(b portBinding) bool { return b.port == port })
	}
	if bound {
		panic(fmt.Sprintf("netsim: node %d port %d already bound", n.ID, port))
	}
	n.ports = append(n.net.portMem.Reserve(n.ports, len(n.ports)+1), portBinding{port: port, a: a})
	n.portInsert(port, a)
}

// portInsert maintains the dense delivery table for one new binding, or
// abandons it when the numbering is too sparse to table.
func (n *Node) portInsert(port int, a Agent) {
	if n.portSparse {
		return
	}
	if port < 0 || (port >= densePortLimit && port > portSlack*(len(n.ports)+8)) {
		clear(n.portTab)
		n.portTab = n.portTab[:0]
		n.portSparse = true
		return
	}
	if old := len(n.portTab); port >= old {
		// A recycled node slot's table may still hold a previous
		// scenario's agents beyond its length: the ports skipped over
		// must read unbound.
		n.portTab = n.net.tabMem.Reserve(n.portTab, port+1)[:port+1]
		clear(n.portTab[old:port])
	}
	n.portTab[port] = a
}

// Detach unbinds a port. Detaching an unbound port is a no-op, so callers
// recycling ports (e.g. short-flow generators) need not track liveness.
func (n *Node) Detach(port int) {
	for i, b := range n.ports {
		if b.port == port {
			n.ports = append(n.ports[:i], n.ports[i+1:]...)
			if port >= 0 && port < len(n.portTab) {
				n.portTab[port] = nil
			}
			return
		}
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

// Send injects a packet originated by a local agent into the network.
//
//tfrc:hotpath
func (n *Node) Send(p *Packet) {
	if p.Dst == n.ID {
		// Local delivery without touching any link.
		n.deliver(p)
		return
	}
	n.forward(p)
}

//tfrc:hotpath
func (n *Node) receive(p *Packet) {
	if p.Dst == n.ID {
		n.deliver(p)
		return
	}
	n.forward(p)
}

//tfrc:hotpath
func (n *Node) deliver(p *Packet) {
	if tab := n.portTab; len(tab) != 0 {
		// Dense table: covers every bound port by invariant, so a miss
		// here is a definitive miss.
		if idx := p.DstPort; idx >= 0 && idx < len(tab) {
			if a := tab[idx]; a != nil {
				a.Recv(p)
				return
			}
		}
		n.net.pool.Put(p)
		return
	}
	for _, b := range n.ports {
		if b.port == p.DstPort {
			b.a.Recv(p)
			return
		}
	}
	// No consumer: silently discard, as a real host would.
	n.net.pool.Put(p)
}

const maxHops = 64

//tfrc:hotpath
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
	pool       Pool    //tfrc:keep the packet slab, zeroed and reissued by New
	nodes      []*Node //tfrc:keep node headers live in nodeSlab; this index is recycled backing
	nominalPkt int     // mean packet size (bytes) for capacity-aware queues

	nodeSlab sim.Slab[Node]
	linkSlab sim.Slab[Link]
	dtSlab   sim.Slab[DropTail] //tfrc:keep queue structs and their rings are recycled in place across scenarios
	redSlab  sim.Slab[RED]      //tfrc:keep queue structs and their rings are recycled in place across scenarios

	// nowFn is the clock closure handed to capacity-aware queues. It
	// captures the (stable) Network rather than the current scheduler, so
	// it is built once per Network lifetime instead of once per queue.
	nowFn func() float64 //tfrc:keep built once per Network lifetime; captures only the Network itself

	routeSlab []*Link // n*n next-hop table, partitioned per node

	// What is sized per node or per queue rather than per network is cut
	// from these: a cold cell pays a few chunks, not an append chain per
	// node, and the slots keep their segments as they kept their slices.
	adjMem  sim.Carver[adjacency]   //tfrc:keep node slots retain the segments they took
	portMem sim.Carver[portBinding] //tfrc:keep node slots retain the segments they took; Release scrubs them
	tabMem  sim.Carver[Agent]       //tfrc:keep node slots retain the segments they took; Release scrubs them
	ringMem sim.Carver[*Packet]     //tfrc:keep queue slots retain the rings they took

	visited []bool   //tfrc:keep BuildRoutes scratch, value-only backing
	bfsQ    []bfsHop //tfrc:keep BuildRoutes scratch; truncated after every build

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
		clear(n.portTab[:cap(n.portTab)])
		n.portTab = n.portTab[:0]
		n.route = nil
	})
	nw.linkSlab.Each(func(l *Link) {
		clear(l.taps[:cap(l.taps)])
		l.taps = l.taps[:0]
		l.queue = nil
		l.imp = nil
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
	n.portTab = n.portTab[:0]
	n.portSparse = false
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
// them are dropped at the forwarding node (counted by RouteDrops)
// instead of panicking. The BFS scratch of BuildRoutes is reused, so
// periodic recomputation allocates nothing.
func (nw *Network) RecomputeRoutes() {
	nw.buildRoutes(true)
}

// RouteDrops returns how many packets were dropped for lack of a route
// while the network was partitioned by failed links.
func (nw *Network) RouteDrops() int64 { return nw.routeDrops }

func (nw *Network) buildRoutes(tolerateDown bool) {
	n := len(nw.nodes)
	if cap(nw.routeSlab) < n*n {
		nw.routeSlab = make([]*Link, n*n)
	}
	slab := nw.routeSlab[:n*n]
	clear(slab)
	if cap(nw.visited) < n {
		nw.visited = make([]bool, n)
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
