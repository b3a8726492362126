package netsim

import (
	"fmt"
	"strings"

	"tfrc/internal/sim"
)

// QueueKind selects the bottleneck queue discipline for a topology.
type QueueKind int

// Queue disciplines available to topology builders.
const (
	QueueDropTail QueueKind = iota
	QueueRED
)

func (k QueueKind) String() string {
	if k == QueueRED {
		return "RED"
	}
	return "DropTail"
}

// MarshalText encodes the kind as its name, so JSON parameter and
// result files say "RED" rather than 1.
func (k QueueKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText accepts the names emitted by MarshalText
// (case-insensitively) and bare integers for compatibility.
func (k *QueueKind) UnmarshalText(text []byte) error {
	switch strings.ToLower(string(text)) {
	case "droptail", "0":
		*k = QueueDropTail
	case "red", "1":
		*k = QueueRED
	default:
		return fmt.Errorf("unknown queue kind %q (want DropTail or RED)", text)
	}
	return nil
}

// The access links of the dumbbell and parking-lot presets are
// provisioned so that drops happen only at the bottleneck (§4.1.2): ten
// times its rate, 1 ms of delay (unless DumbbellConfig.AccessDly says
// otherwise), and a generous DropTail buffer.
const (
	accessBWFactor = 10
	accessDelay    = 0.001 // seconds, one way
	accessQueue    = 1000  // packets
)

// accessSpec is the access-link spec of a preset whose bottleneck runs at
// bottleneckBW.
func accessSpec(bottleneckBW, delay float64) LinkSpec {
	return LinkSpec{
		Bandwidth: accessBWFactor * bottleneckBW, Delay: delay,
		Queue: QueueDropTail, QueueLimit: accessQueue,
	}
}

// DumbbellConfig describes the paper's standard single-bottleneck
// evaluation topology: N left hosts and N right hosts joined through two
// routers by one congested link.
type DumbbellConfig struct {
	Hosts         int       // host pairs (left i talks to right i)
	BottleneckBW  float64   // bits/sec
	BottleneckDly float64   // one-way propagation delay of the bottleneck
	AccessDly     []float64 // per-host access one-way delay; nil → 1 ms each
	Queue         QueueKind
	QueueLimit    int       // packets at the bottleneck (both directions)
	RED           REDConfig // used when Queue == QueueRED; Limit overridden
	PktBytes      int       // nominal packet size for capacity-aware queues; 0 → 1000
}

// Dumbbell is the realized topology. Its Topo field exposes the builder
// names: routers "rl"/"rr", hosts "l{i}"/"r{i}", bottleneck "rl->rr".
type Dumbbell struct {
	Topo           *Topology
	Net            *Network
	Left, Right    []*Node
	RouterL        *Node
	RouterR        *Node
	Forward        *Link // RouterL → RouterR: the congested direction
	Reverse        *Link // RouterR → RouterL
	ForwardQ, RevQ Queue
	cfg            DumbbellConfig
}

// NewDumbbell builds the paper's dumbbell as a preset over the Topology
// builder, on a fresh network bound to sched. rng drives RED's
// early-drop decisions.
func NewDumbbell(sched *sim.Scheduler, cfg DumbbellConfig, rng *sim.Rand) *Dumbbell {
	if cfg.Hosts < 1 {
		panic("netsim: dumbbell needs at least one host pair")
	}
	if cfg.QueueLimit < 1 {
		panic("netsim: dumbbell needs a queue limit")
	}
	t := NewTopology(sched, rng)
	if cfg.PktBytes > 0 {
		t.Network().SetNominalPacketSize(cfg.PktBytes)
	}
	// The realized-topology struct rides the scheduler's arena like the
	// builder state it wraps; its host slices keep their capacity across
	// sweep cells.
	a := arenaOf(sched)
	d := sim.Next(&a.dumbbells)
	*d = Dumbbell{
		Topo: t, Net: t.Network(), cfg: cfg,
		Left:  d.Left[:0],
		Right: d.Right[:0],
	}
	d.RouterL = t.Node("rl")
	d.RouterR = t.Node("rr")
	d.Forward, d.Reverse = t.Link("rl", "rr", LinkSpec{
		Bandwidth: cfg.BottleneckBW, Delay: cfg.BottleneckDly,
		Queue: cfg.Queue, QueueLimit: cfg.QueueLimit, RED: cfg.RED,
	})
	d.ForwardQ = d.Forward.Queue()
	d.RevQ = d.Reverse.Queue()

	for i := 0; i < cfg.Hosts; i++ {
		l := IndexedName("l", i)
		r := IndexedName("r", i)
		d.Left = append(d.Left, t.Node(l))
		d.Right = append(d.Right, t.Node(r))
		aspec := accessSpec(cfg.BottleneckBW, d.accessDly(i))
		t.Link(l, "rl", aspec)
		t.Link(r, "rr", aspec)
	}
	t.Build()
	return d
}

// accessDly is the one-way delay of host pair i's access links.
func (d *Dumbbell) accessDly(i int) float64 {
	if d.cfg.AccessDly == nil {
		return accessDelay
	}
	return d.cfg.AccessDly[i%len(d.cfg.AccessDly)]
}

// RTT returns the base (zero-queue) round-trip time between left host i
// and its right peer, counting propagation only.
func (d *Dumbbell) RTT(i int) float64 {
	return 2 * (2*d.accessDly(i) + d.cfg.BottleneckDly)
}
