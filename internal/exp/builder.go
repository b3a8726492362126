package exp

import (
	"tfrc/internal/cc"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/tcp"
	"tfrc/internal/tfrcsim"
	"tfrc/internal/traffic"
)

// ScenarioBuilder composes a simulation scenario on an arbitrary
// topology: flows placed on named host pairs, monitors attached to named
// links, and a single harvest step producing a ScenarioResult. Calls take
// effect immediately in call order — two builders issuing the same calls
// produce event-for-event identical simulations — so experiments stay
// deterministic and bit-identical under the parallel sweep runner.
//
// Flow IDs are assigned sequentially from 0 in Add order. Ports are
// allocated per node, so any number of flows can share a host pair.
type ScenarioBuilder struct {
	topo *netsim.Topology
	nw   *netsim.Network

	nextFlow  int
	tcpFlows  []int //tfrc:keep recycled int backing, truncated by NewScenarioBuilder
	tfrcFlows []int //tfrc:keep recycled int backing, truncated by NewScenarioBuilder
	ports     []int //tfrc:keep next free port per NodeID; recycled int backing
	micePort  int

	tfrcSenders []*tfrcsim.Sender

	primary      *netsim.FlowMonitor
	primaryBin   float64
	primaryStart float64
	primaryBW    float64
	monitors     []*netsim.FlowMonitor
	util         *netsim.UtilizationMonitor
	qmon         *netsim.QueueMonitor
}

// expArenaID is this package's slot in every scheduler's arena table;
// it pools scenario builders alongside the simulator objects they wire.
var expArenaID = sim.NewArenaID()

type builderArena struct{ builders sim.Slab[*ScenarioBuilder] }

// ResetArena implements sim.Arena.
func (a *builderArena) ResetArena() { a.builders.Reset() }

func builderFor(s *sim.Scheduler) *ScenarioBuilder {
	a := s.Arena(expArenaID, func() sim.Arena { return &builderArena{} }).(*builderArena)
	return sim.Next(&a.builders)
}

// NewScenarioBuilder returns a builder over the topology, building its
// routes if the caller has not already done so. The
// builder struct and its bookkeeping slices come from the scheduler's
// arena and are recycled across sweep cells.
func NewScenarioBuilder(t *netsim.Topology) *ScenarioBuilder {
	nw := t.Build()
	b := builderFor(nw.Scheduler())
	ports := b.ports[:0]
	if cap(ports) < len(nw.Nodes()) {
		ports = make([]int, len(nw.Nodes()))
	} else {
		ports = ports[:len(nw.Nodes())]
		clear(ports)
	}
	*b = ScenarioBuilder{
		topo:        t,
		nw:          nw,
		ports:       ports,
		micePort:    5000,
		tcpFlows:    b.tcpFlows[:0],
		tfrcFlows:   b.tfrcFlows[:0],
		tfrcSenders: b.tfrcSenders[:0],
		monitors:    b.monitors[:0],
	}
	return b
}

// Topology returns the underlying topology for direct access to nodes
// and links.
func (b *ScenarioBuilder) Topology() *netsim.Topology { return b.topo }

// Network returns the underlying network.
func (b *ScenarioBuilder) Network() *netsim.Network { return b.nw }

// port hands out the next free port on a node, starting at 1.
func (b *ScenarioBuilder) port(n *netsim.Node) int {
	for int(n.ID) >= len(b.ports) {
		b.ports = append(b.ports, 0)
	}
	b.ports[n.ID]++
	return b.ports[n.ID]
}

// AddTCP places a one-way TCP transfer from src to dst, starting at the
// given time, and returns its flow ID.
func (b *ScenarioBuilder) AddTCP(src, dst string, cfg tcp.Config, start float64) int {
	s, d := b.topo.Lookup(src), b.topo.Lookup(dst)
	flow := b.nextFlow
	b.nextFlow++
	sinkPort, srcPort := b.port(d), b.port(s)
	tcp.NewSink(b.nw, d, sinkPort, flow, 40)
	snd := tcp.NewSender(b.nw, s, d.ID, sinkPort, srcPort, flow, cfg)
	snd.Start(start)
	b.tcpFlows = append(b.tcpFlows, flow)
	return flow
}

// AddCC places a one-way TCP transfer whose congestion-control policy
// comes from package cc: name selects the controller ("reno", "vegas",
// "ledbat" or "relentless"), ccfg carries its tuning (ccfg.Name is
// overridden by name), and cfg the transport mechanics. A zero cfg.Variant is upgraded to Sack — the scoreboard
// recovery every non-Reno controller is designed to ride on; set a
// variant explicitly to study a mismatched pairing. Returns the flow ID.
func (b *ScenarioBuilder) AddCC(name cc.Name, ccfg cc.Config, src, dst string, cfg tcp.Config, start float64) int {
	ccfg.Name = name
	cfg.CC = ccfg
	if cfg.Variant == tcp.Tahoe {
		cfg.Variant = tcp.Sack
	}
	return b.AddTCP(src, dst, cfg, start)
}

// AddTFRC places a TFRC sender/receiver pair from src to dst, starting
// at the given time, and returns its flow ID.
func (b *ScenarioBuilder) AddTFRC(src, dst string, cfg tfrcsim.Config, start float64) int {
	s, d := b.topo.Lookup(src), b.topo.Lookup(dst)
	flow := b.nextFlow
	b.nextFlow++
	dstPort, srcPort := b.port(d), b.port(s)
	snd, _ := tfrcsim.Pair(b.nw, s, d, dstPort, srcPort, flow, cfg)
	snd.Start(start)
	b.tfrcFlows = append(b.tfrcFlows, flow)
	b.tfrcSenders = append(b.tfrcSenders, snd)
	return flow
}

// TFRCSender returns the sender agent of the i-th AddTFRC call, for rate
// traces (OnRateChange) and robustness counters. Valid until Release.
func (b *ScenarioBuilder) TFRCSender(i int) *tfrcsim.Sender { return b.tfrcSenders[i] }

// AddOnOff places a Pareto ON/OFF background source from src to dst with
// its own rng, plus a discarding sink, and returns its flow ID. ON/OFF
// flows are background: they are not counted in the fair share.
func (b *ScenarioBuilder) AddOnOff(src, dst string, cfg traffic.OnOffConfig, rng *sim.Rand, start float64) int {
	s, d := b.topo.Lookup(src), b.topo.Lookup(dst)
	flow := b.nextFlow
	b.nextFlow++
	port := b.port(d)
	traffic.NewSink(b.nw, d, port)
	traffic.NewOnOff(b.nw, s, d.ID, port, flow, cfg, rng).Start(start)
	return flow
}

// AddMice places a short-TCP session generator between src and dst. All
// sessions share one flow ID (returned). A zero cfg.BasePort draws a
// dedicated 2·MaxConcurrent port range so concurrent generators never
// collide.
func (b *ScenarioBuilder) AddMice(src, dst string, cfg traffic.MiceConfig, rng *sim.Rand, start float64) int {
	s, d := b.topo.Lookup(src), b.topo.Lookup(dst)
	flow := b.nextFlow
	b.nextFlow++
	if cfg.BasePort == 0 {
		maxc := cfg.MaxConcurrent
		if maxc == 0 {
			maxc = 64
		}
		cfg.BasePort = b.micePort
		b.micePort += 2 * maxc
	}
	traffic.NewMice(b.nw, s, d, flow, cfg, rng).Start(start)
	return flow
}

// MonitorLink attaches a per-flow monitor to the named simplex link
// ("a->b"). The first monitor attached is the primary one: ScenarioResult
// series, drop rate, and fair share are harvested from it.
func (b *ScenarioBuilder) MonitorLink(link string, binWidth, start float64) *netsim.FlowMonitor {
	l := b.topo.LinkByName(link)
	m := b.nw.NewFlowMonitor(binWidth, start)
	l.AddTap(m.Tap())
	b.monitors = append(b.monitors, m)
	if b.primary == nil {
		b.primary = m
		b.primaryBin = binWidth
		b.primaryStart = start
		b.primaryBW = l.Bandwidth()
	}
	return m
}

// MonitorQueue samples the named link's queue occupancy every period
// seconds until end (≤ 0 means forever). The first queue monitor feeds
// ScenarioResult's queue statistics.
func (b *ScenarioBuilder) MonitorQueue(link string, period, end float64) *netsim.QueueMonitor {
	m := netsim.NewQueueMonitor(b.nw, b.topo.LinkByName(link).Queue(), period, end)
	if b.qmon == nil {
		b.qmon = m
	}
	return m
}

// MonitorUtilization measures the named link's delivered fraction of
// capacity from time start. The first one feeds ScenarioResult.
func (b *ScenarioBuilder) MonitorUtilization(link string, start float64) *netsim.UtilizationMonitor {
	m := netsim.NewUtilizationMonitor(b.topo.LinkByName(link), start)
	if b.util == nil {
		b.util = m
	}
	return m
}

// Release returns the scenario's simulator working memory — the
// network's node/link/queue slabs, its packet pool, and the scheduler's
// event arrays — to shared pools for reuse by the next scenario, so
// short sweep cells stop paying per-cell setup allocations. Monitors and
// any harvested result stay valid (their series are private), but the
// topology, network, scheduler, and flows must not be touched afterwards.
func (b *ScenarioBuilder) Release() {
	sched := b.nw.Scheduler()
	b.topo.Release()
	b.nw.Release()
	sched.Release()
	// Drop the monitor pointers: they reference agents of the scenario
	// that just ended, and the next NewScenarioBuilder rebuilds them.
	// The int bookkeeping slices stay (//tfrc:keep) as recycled backing.
	b.topo = nil
	b.nw = nil
	b.primary = nil
	b.util = nil
	b.qmon = nil
	clear(b.monitors)
	b.monitors = b.monitors[:0]
	clear(b.tfrcSenders)
	b.tfrcSenders = b.tfrcSenders[:0]
}

// TCPFlows returns the flow IDs added by AddTCP, in order.
func (b *ScenarioBuilder) TCPFlows() []int { return b.tcpFlows }

// TFRCFlows returns the flow IDs added by AddTFRC, in order.
func (b *ScenarioBuilder) TFRCFlows() []int { return b.tfrcFlows }

// Run registers every flow with every monitor (preallocating the series
// up front), runs the clock to duration, and harvests a ScenarioResult.
func (b *ScenarioBuilder) Run(duration float64) *ScenarioResult {
	for _, m := range b.monitors {
		nbins := int((duration-m.Start())/m.BinWidth()) + 2
		m.Register(b.nextFlow, nbins)
	}
	b.nw.Scheduler().RunUntil(duration)

	res := &ScenarioResult{}
	if b.primary != nil {
		res.BinWidth = b.primaryBin
		res.Bins = int((duration - b.primaryStart) / b.primaryBin)
		res.DropRate = b.primary.DropRate()
		// All harvested series share one backing slab.
		slab := make([]float64, (len(b.tcpFlows)+len(b.tfrcFlows))*res.Bins)
		take := func(f int) []float64 {
			s := slab[:res.Bins:res.Bins]
			slab = slab[res.Bins:]
			return b.primary.SeriesInto(s, f)
		}
		res.TCPSeries = make([][]float64, 0, len(b.tcpFlows))
		for _, f := range b.tcpFlows {
			res.TCPSeries = append(res.TCPSeries, take(f))
		}
		res.TFRCSeries = make([][]float64, 0, len(b.tfrcFlows))
		for _, f := range b.tfrcFlows {
			res.TFRCSeries = append(res.TFRCSeries, take(f))
		}
	}
	if b.util != nil {
		res.Utilization = b.util.Utilization(duration)
	}
	if b.qmon != nil {
		res.QueueMean = b.qmon.Mean()
		res.QueueMax = b.qmon.Max()
		// QueueMonitor.Samples is freshly allocated per monitor and never
		// rewritten after harvest (see NewQueueMonitor), so handing it to
		// the result is an ownership transfer, not an arena alias.
		res.Queue = b.qmon.Samples //tfrclint:allow releasecheck fresh per-monitor slice, documented handoff
	}
	if longLived := len(b.tcpFlows) + len(b.tfrcFlows); longLived > 0 && b.primaryBW > 0 {
		res.FairShare = b.primaryBW / 8 / float64(longLived)
	}
	return res
}
