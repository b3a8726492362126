package exp

import (
	"slices"

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
	mem  *builderArena // the scheduler's, where the tables below grow

	nextFlow  int
	tcpFlows  []int // recycled int backing, truncated by NewScenarioBuilder
	tfrcFlows []int // recycled int backing, truncated by NewScenarioBuilder
	ports     []int // last port issued per NodeID; recycled int backing

	tfrc []*tfrcsim.Sender // the sender of each AddTFRC call, in call order

	primary      *netsim.FlowMonitor
	primaryLink  string
	primaryBin   float64
	primaryStart float64
	primaryBW    float64
	monitors     []*netsim.FlowMonitor
	util         bool // harvest Utilization off the primary monitor
	qmon         *netsim.QueueMonitor

	// runInPlace harvests into these, kept across scenarios; the queue
	// trace it harvests is kept by the queue monitor.
	seriesSlab            []float64   // rewritten by the next in-place harvest
	tcpSeries, tfrcSeries [][]float64 // headers into seriesSlab, rewritten likewise
}

// expArenaID is this package's slot in every scheduler's arena table;
// it pools scenario builders alongside the simulator objects they wire.
var expArenaID = sim.NewArenaID()

// builderArena holds a scheduler's builders and the segments their flow
// and monitor tables grow into; a builder slot keeps the segments it
// took, so its tables are not appended from nil.
type builderArena struct {
	builders sim.Slab[*ScenarioBuilder]
	flowMem  sim.Carver[int]
	tfrcMem  sim.Carver[*tfrcsim.Sender]
	monMem   sim.Carver[*netsim.FlowMonitor]

	accessDly []float64 // buildScenario's access-link delays, redrawn by each scenario
}

// ResetArena implements sim.Arena. A builder needs no scrub: what it
// points at — topology, network, monitors, senders — is stock of the
// same scheduler's arenas, which scrub it themselves.
func (a *builderArena) ResetArena() { a.builders.Reset() }

// builderArenaOf returns sched's exp arena, made on first use.
func builderArenaOf(sched *sim.Scheduler) *builderArena {
	return sched.Arena(expArenaID, func() sim.Arena { return &builderArena{} }).(*builderArena)
}

// NewScenarioBuilder returns a builder over the topology, building its
// routes if the caller has not already done so. The
// builder struct and its bookkeeping slices come from the scheduler's
// arena and are recycled across sweep cells.
func NewScenarioBuilder(t *netsim.Topology) *ScenarioBuilder {
	nw := t.Build()
	a := builderArenaOf(nw.Scheduler())
	b := sim.Next(&a.builders)
	ports := b.ports[:0]
	if cap(ports) < len(nw.Nodes()) {
		ports = make([]int, len(nw.Nodes()))
	} else {
		ports = ports[:len(nw.Nodes())]
		clear(ports)
	}
	*b = ScenarioBuilder{
		topo:       t,
		nw:         nw,
		mem:        a,
		ports:      ports,
		tcpFlows:   b.tcpFlows[:0],
		tfrcFlows:  b.tfrcFlows[:0],
		tfrc:       b.tfrc[:0],
		monitors:   b.monitors[:0],
		seriesSlab: b.seriesSlab,
		tcpSeries:  b.tcpSeries,
		tfrcSeries: b.tfrcSeries,
	}
	return b
}

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
	b.tcpFlows = append(b.mem.flowMem.Reserve(b.tcpFlows, len(b.tcpFlows)+1), flow)
	return flow
}

// AddCC places a one-way TCP transfer whose congestion-control policy
// comes from package cc: name selects the controller ("reno", "vegas",
// "ledbat" or "relentless"), and cfg the transport mechanics. The
// cc.Config argument is ignored: a controller's name is all it takes.
// A zero cfg.Variant is upgraded to Sack — the scoreboard recovery
// every non-Reno controller is designed to ride on; set a variant
// explicitly to study a mismatched pairing. Returns the flow ID.
func (b *ScenarioBuilder) AddCC(name cc.Name, _ cc.Config, src, dst string, cfg tcp.Config, start float64) int {
	cfg.CC = cc.Config{Name: name}
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
	b.tfrcFlows = append(b.mem.flowMem.Reserve(b.tfrcFlows, len(b.tfrcFlows)+1), flow)
	b.tfrc = append(b.mem.tfrcMem.Reserve(b.tfrc, len(b.tfrc)+1), snd)
	return flow
}

// TFRCSender returns the sender agent of the i-th AddTFRC call, for rate
// traces (OnRateChange) and robustness counters. Valid until Release.
func (b *ScenarioBuilder) TFRCSender(i int) *tfrcsim.Sender { return b.tfrc[i] }

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
// sessions share one flow ID (returned). A zero cfg.BasePort takes the
// next traffic.MiceSlots ports free on both hosts, so the generator
// collides with no other flow and every port table stays dense.
func (b *ScenarioBuilder) AddMice(src, dst string, cfg traffic.MiceConfig, rng *sim.Rand, start float64) int {
	s, d := b.topo.Lookup(src), b.topo.Lookup(dst)
	flow := b.nextFlow
	b.nextFlow++
	if cfg.BasePort == 0 {
		cfg.BasePort = max(b.port(s), b.port(d))
		b.ports[s.ID] = cfg.BasePort + traffic.MiceSlots - 1
		b.ports[d.ID] = b.ports[s.ID]
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
	b.monitors = append(b.mem.monMem.Reserve(b.monitors, len(b.monitors)+1), m)
	if b.primary == nil {
		b.primary = m
		b.primaryLink = link
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

// MonitorUtilization has ScenarioResult report the named link's
// delivered fraction of capacity from time start, against the bandwidth
// the link had when MonitorLink attached the primary monitor. It reads
// the primary monitor's bytes, so it panics unless that monitor watches
// link from start.
func (b *ScenarioBuilder) MonitorUtilization(link string, start float64) {
	if b.primary == nil || link != b.primaryLink || start != b.primaryStart {
		panic("exp: MonitorUtilization(" + link + ") needs the primary monitor on that link from that start")
	}
	b.util = true
}

// Release ends the scenario: it rewinds the scheduler the builder was
// built on, whose arenas scrub and take back everything the scenario
// used, so the next scenario — built on the same scheduler — reuses the
// entire working set. A result from Run stays valid for good (its
// storage is its own); the monitors, and a result harvested in place,
// stay readable until the next scenario is built, which rewrites their
// storage. The topology, network, builder and flows must not be touched
// afterwards.
func (b *ScenarioBuilder) Release() { b.nw.Scheduler().Reset() }

// Run registers every flow with every monitor (preallocating the series
// up front), runs the clock to duration, and harvests a ScenarioResult
// into fresh storage: the result is the caller's own, valid after
// Release and every later scenario on the scheduler.
func (b *ScenarioBuilder) Run(duration float64) *ScenarioResult {
	bins := b.simulate(duration)
	var st resultStore
	if b.primary != nil {
		st.slab = make([]float64, (len(b.tcpFlows)+len(b.tfrcFlows))*bins)
		st.tcp = make([][]float64, 0, len(b.tcpFlows))
		st.tfrc = make([][]float64, 0, len(b.tfrcFlows))
	}
	if b.qmon != nil {
		st.queue = slices.Clone(b.qmon.Samples)
	}
	res := &ScenarioResult{}
	b.harvest(res, duration, bins, st)
	return res
}

// runInPlace is Run harvesting into storage kept across scenarios: the
// builder's series slab and headers, and the queue monitor's samples.
// The result is valid until the scheduler's next Reset; a caller that
// keeps any slice of it longer clones that slice.
func (b *ScenarioBuilder) runInPlace(duration float64) ScenarioResult {
	bins := b.simulate(duration)
	var st resultStore
	if b.primary != nil {
		// Never nil, even when empty, so an in-place result's slices are
		// nil exactly where Run's are.
		if n := (len(b.tcpFlows) + len(b.tfrcFlows)) * bins; b.seriesSlab == nil || len(b.seriesSlab) < n {
			b.seriesSlab = make([]float64, n)
		}
		if b.tcpSeries == nil || cap(b.tcpSeries) < len(b.tcpFlows) {
			b.tcpSeries = make([][]float64, 0, len(b.tcpFlows))
		}
		if b.tfrcSeries == nil || cap(b.tfrcSeries) < len(b.tfrcFlows) {
			b.tfrcSeries = make([][]float64, 0, len(b.tfrcFlows))
		}
		st = resultStore{slab: b.seriesSlab, tcp: b.tcpSeries[:0], tfrc: b.tfrcSeries[:0]}
	}
	if b.qmon != nil {
		st.queue = b.qmon.Samples
	}
	var res ScenarioResult
	b.harvest(&res, duration, bins, st)
	return res
}

// simulate registers every flow with every monitor, runs the clock to
// duration, and returns the number of whole bins the primary monitor
// measured.
func (b *ScenarioBuilder) simulate(duration float64) (bins int) {
	for _, m := range b.monitors {
		nbins := int((duration-m.Start())/m.BinWidth()) + 2
		m.Register(b.nextFlow, nbins)
	}
	b.nw.Scheduler().RunUntil(duration)
	if b.primary == nil {
		return 0
	}
	return int((duration - b.primaryStart) / b.primaryBin)
}

// resultStore is the storage a harvest fills: a slab holding bins floats
// for every long-lived flow, the two series headers (empty, with room
// for every flow), and the queue trace.
type resultStore struct {
	slab      []float64
	tcp, tfrc [][]float64
	queue     []netsim.QueueSample
}

// harvest fills res from the monitors once the clock has run to
// duration, cutting its series from the storage it is handed.
func (b *ScenarioBuilder) harvest(res *ScenarioResult, duration float64, bins int, st resultStore) {
	if b.primary != nil {
		res.BinWidth = b.primaryBin
		res.Bins = bins
		res.DropRate = b.primary.DropRate()
		take := func(f int) []float64 {
			s := st.slab[:bins:bins]
			st.slab = st.slab[bins:]
			return b.primary.SeriesInto(s, f)
		}
		for _, f := range b.tcpFlows {
			st.tcp = append(st.tcp, take(f))
		}
		for _, f := range b.tfrcFlows {
			st.tfrc = append(st.tfrc, take(f))
		}
	}
	if elapsed := duration - b.primaryStart; b.util && elapsed > 0 {
		var bytes float64
		for f := 0; f < b.nextFlow; f++ {
			bytes += b.primary.TotalBytes(f)
		}
		res.Utilization = bytes * 8 / (b.primaryBW * elapsed)
	}
	if b.qmon != nil {
		res.QueueMean = b.qmon.Mean()
		res.QueueMax = b.qmon.Max()
	}
	if longLived := len(b.tcpFlows) + len(b.tfrcFlows); longLived > 0 && b.primaryBW > 0 {
		res.FairShare = b.primaryBW / 8 / float64(longLived)
	}
	res.TCPSeries, res.TFRCSeries, res.Queue = st.tcp, st.tfrc, st.queue //tfrclint:allow releasecheck the caller's storage: fresh from Run, kept in place (valid until the next Reset) from runInPlace
}
