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

// DumbbellConfig describes the paper's standard single-bottleneck
// evaluation topology: N left hosts and N right hosts joined through two
// routers by one congested link. Access links are provisioned so that
// drops happen only at the bottleneck (§4.1.2).
type DumbbellConfig struct {
	Hosts          int       // host pairs (left i talks to right i)
	BottleneckBW   float64   // bits/sec
	BottleneckDly  float64   // one-way propagation delay of the bottleneck
	AccessBW       float64   // bits/sec; 0 → 10× bottleneck
	AccessDly      []float64 // per-host access one-way delay; nil → 1 ms each
	Queue          QueueKind
	QueueLimit     int       // packets at the bottleneck (both directions)
	RED            REDConfig // used when Queue == QueueRED; Limit overridden
	AccessQueueLen int       // packets on access links; 0 → generous (1000)
	PktBytes       int       // nominal packet size for capacity-aware queues; 0 → 1000
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
	if cfg.AccessBW == 0 {
		cfg.AccessBW = 10 * cfg.BottleneckBW
	}
	if cfg.AccessQueueLen == 0 {
		cfg.AccessQueueLen = 1000
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
		dly := 0.001
		if cfg.AccessDly != nil {
			dly = cfg.AccessDly[i%len(cfg.AccessDly)]
		}
		l := IndexedName("l", i)
		r := IndexedName("r", i)
		d.Left = append(d.Left, t.Node(l))
		d.Right = append(d.Right, t.Node(r))
		aspec := LinkSpec{
			Bandwidth: cfg.AccessBW, Delay: dly,
			Queue: QueueDropTail, QueueLimit: cfg.AccessQueueLen,
		}
		t.Link(l, "rl", aspec)
		t.Link(r, "rr", aspec)
	}
	t.Build()
	return d
}

// RTT returns the base (zero-queue) round-trip time between left host i
// and its right peer, counting propagation only.
func (d *Dumbbell) RTT(i int) float64 {
	acc := 0.001
	if d.cfg.AccessDly != nil {
		acc = d.cfg.AccessDly[i%len(d.cfg.AccessDly)]
	}
	return 2 * (2*acc + d.cfg.BottleneckDly)
}
