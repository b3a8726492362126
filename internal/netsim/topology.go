package netsim

import (
	"fmt"

	"tfrc/internal/sim"
)

// LinkSpec declares one direction of a link: its rate, propagation
// delay, and queue discipline. The zero Queue value is DropTail.
type LinkSpec struct {
	Bandwidth  float64 // bits/sec
	Delay      float64 // one-way propagation delay, seconds
	Queue      QueueKind
	QueueLimit int       // packets
	RED        REDConfig // used when Queue == QueueRED; Limit overridden by QueueLimit
}

// Topology declaratively builds a Network: named nodes joined by links
// whose two directions share a bandwidth, delay and queue discipline,
// each direction with a queue of its own. Declaration order is
// construction order, so two topologies declared identically are
// event-for-event identical. Build computes routes; the dumbbell and
// parking-lot presets are thin layers over it. A link that changes rate
// or delay mid-run — or runs one direction at another rate — is a
// faults.Schedule applied to the topology (or a scheduler event calling
// Link.SetBandwidth/SetDelay).
type Topology struct {
	nw    *Network
	rng   *sim.Rand
	nodes map[string]*Node
	links map[string]*Link
	built bool
}

// NewTopology returns an empty topology on a fresh network bound to
// sched. rng drives the early-drop decisions of any RED queues declared
// via LinkSpec; it may be nil if no such queue is declared. The builder
// state (its name-map buckets) comes from the scheduler's arena, so
// repeated cells on a recycled scheduler rebuild their topology without
// reallocating it.
func NewTopology(sched *sim.Scheduler, rng *sim.Rand) *Topology {
	return newTopology(sched, rng, 0, 0)
}

// newTopology is NewTopology with room reserved for the given numbers
// of nodes and simplex links, which a preset knows before it declares
// any: a cold cell then makes the network's node table and the two name
// maps once instead of growing them by doubling. A recycled builder
// keeps the tables it grew.
func newTopology(sched *sim.Scheduler, rng *sim.Rand, nodes, links int) *Topology {
	a := arenaOf(sched)
	t := sim.Next(&a.topos)
	t.nw = New(sched)
	if cap(t.nw.nodes) < nodes {
		t.nw.nodes = make([]*Node, 0, nodes)
	}
	t.rng = rng
	if t.nodes == nil {
		t.nodes = make(map[string]*Node, nodes)
		t.links = make(map[string]*Link, links)
	}
	clear(t.nodes)
	clear(t.links)
	t.built = false
	return t
}

// Release scrubs the topology's references to its network and nodes
// so the recycled builder state pins nothing while it waits in the
// scheduler's arena for the next NewTopology. The topology must not be
// used afterwards; calling Release is optional.
func (t *Topology) Release() {
	t.nw = nil
	clear(t.nodes)
	clear(t.links)
}

// Network returns the underlying network.
func (t *Topology) Network() *Network { return t.nw }

// Node returns the named node, creating it on first mention. Names are
// purely a builder concern: the simulator itself keeps addressing nodes
// by NodeID.
func (t *Topology) Node(name string) *Node {
	if n, ok := t.nodes[name]; ok {
		return n
	}
	n := t.nw.NewNode()
	t.nodes[name] = n
	return n
}

// Lookup returns the named node or panics if it was never declared —
// a misspelled name in an experiment is a bug, not a condition.
func (t *Topology) Lookup(name string) *Node {
	n, ok := t.nodes[name]
	if !ok {
		panic(fmt.Sprintf("netsim: topology has no node %q", name))
	}
	return n
}

// Link joins a and b with the same spec in both directions and returns
// the a→b and b→a links, addressable afterwards as "a->b" and "b->a".
// Nodes are created on first mention.
func (t *Topology) Link(a, b string, spec LinkSpec) (ab, ba *Link) {
	if t.built {
		panic("netsim: cannot add links after Build")
	}
	if _, dup := t.links[linkName(a, b)]; dup {
		panic(fmt.Sprintf("netsim: link %q already declared", linkName(a, b)))
	}
	na, nb := t.Node(a), t.Node(b)
	// Queues are built eagerly (a→b first) rather than through mkQueue
	// closures, keeping the declaration path allocation-free.
	qab := t.makeQueue(spec)
	qba := t.makeQueue(spec)
	ab, ba = t.nw.connect(na, nb, spec.Bandwidth, spec.Delay, qab, qba)
	t.links[linkName(a, b)] = ab
	t.links[linkName(b, a)] = ba
	return ab, ba
}

func (t *Topology) makeQueue(spec LinkSpec) Queue {
	switch spec.Queue {
	case QueueRED:
		red := spec.RED
		red.Limit = spec.QueueLimit
		return t.nw.newRED(red, t.rng)
	default:
		return t.nw.newDropTail(spec.QueueLimit)
	}
}

// LinkByName returns the simplex link declared as from→to ("a->b"), or
// panics if no such link exists.
func (t *Topology) LinkByName(name string) *Link {
	l, ok := t.links[name]
	if !ok {
		panic(fmt.Sprintf("netsim: topology has no link %q", name))
	}
	return l
}

// Build computes shortest-path routes, returning the network ready to
// run. Build is idempotent so presets can build eagerly.
func (t *Topology) Build() *Network {
	if !t.built {
		t.built = true
		t.nw.BuildRoutes()
	}
	return t.nw
}

// --- Parking-lot preset ---

// ParkingLotConfig describes the classic multi-bottleneck "parking lot"
// topology: k bottleneck links in a row joined by k+1 routers. Through
// host pairs (sources at router 0, sinks at router k) cross every
// bottleneck; cross host pairs on segment i enter at router i and leave
// at router i+1, loading exactly one bottleneck each. Access links are
// the dumbbell's: provisioned so drops happen only at the bottlenecks.
type ParkingLotConfig struct {
	Bottlenecks   int // k ≥ 1
	ThroughPairs  int // host pairs traversing every bottleneck (≥ 1)
	CrossPairs    int // host pairs per segment
	BottleneckBW  float64
	BottleneckDly float64 // per bottleneck hop, one way
	Queue         QueueKind
	QueueLimit    int       // packets per bottleneck
	RED           REDConfig // used when Queue == QueueRED
}

// ParkingLot is the realized multi-bottleneck topology. Routers are
// named "r0".."rk", through hosts "ts{i}"/"td{i}", and segment-s cross
// hosts "cs{s}.{i}"/"cd{s}.{i}"; bottleneck s is the link "r{s}->r{s+1}".
// Topo.Lookup finds a node by name.
type ParkingLot struct {
	Topo        *Topology
	Net         *Network
	Bottlenecks []*Link // forward direction: router s → router s+1
}

// NewParkingLot builds the parking lot on a fresh network bound to
// sched. rng drives RED's early-drop decisions.
func NewParkingLot(sched *sim.Scheduler, cfg ParkingLotConfig, rng *sim.Rand) *ParkingLot {
	if cfg.Bottlenecks < 1 {
		panic("netsim: parking lot needs at least one bottleneck")
	}
	if cfg.ThroughPairs < 1 {
		panic("netsim: parking lot needs at least one through pair")
	}
	if cfg.QueueLimit < 1 {
		panic("netsim: parking lot needs a queue limit")
	}
	k := cfg.Bottlenecks
	hosts := 2*cfg.ThroughPairs + 2*k*cfg.CrossPairs
	t := newTopology(sched, rng, (k+1)+hosts, 2*(k+hosts))
	pl := &ParkingLot{Topo: t, Bottlenecks: make([]*Link, 0, k)}
	bspec := LinkSpec{
		Bandwidth: cfg.BottleneckBW, Delay: cfg.BottleneckDly,
		Queue: cfg.Queue, QueueLimit: cfg.QueueLimit, RED: cfg.RED,
	}
	aspec := accessSpec(cfg.BottleneckBW, accessDelay)
	for s := 0; s <= k; s++ {
		t.Node(IndexedName("r", s))
	}
	for s := 0; s < k; s++ {
		fwd, _ := t.Link(IndexedName("r", s), IndexedName("r", s+1), bspec)
		pl.Bottlenecks = append(pl.Bottlenecks, fwd)
	}
	for i := 0; i < cfg.ThroughPairs; i++ {
		t.Node(IndexedName("ts", i))
		t.Node(IndexedName("td", i))
		t.Link(IndexedName("ts", i), "r0", aspec)
		t.Link(IndexedName("td", i), IndexedName("r", k), aspec)
	}
	for s := 0; s < k; s++ {
		for i := 0; i < cfg.CrossPairs; i++ {
			t.Node(SubName("cs", s, i))
			t.Node(SubName("cd", s, i))
			t.Link(SubName("cs", s, i), IndexedName("r", s), aspec)
			t.Link(SubName("cd", s, i), IndexedName("r", s+1), aspec)
		}
	}
	pl.Net = t.Build()
	return pl
}

// BottleneckName returns the topology name of forward bottleneck s.
func (pl *ParkingLot) BottleneckName(s int) string {
	return linkName(IndexedName("r", s), IndexedName("r", s+1))
}
