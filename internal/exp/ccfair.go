package exp

import (
	"fmt"
	"io"

	"tfrc/internal/cc"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/stats"
)

// CCFairParams is the head-to-head fairness grid for the
// congestion-control zoo: N flows of protocol A against M flows of
// protocol B sharing a dumbbell or a parking lot, swept over RTT and
// bottleneck bandwidth. Protocols are "tfrc" or a cc controller name
// ("reno", "vegas", "ledbat", "relentless"), so the same experiment
// answers both the paper's question (is TFRC TCP-friendly?) and its
// inversions (who starves whom when the rival does not halve, or backs
// off on delay alone?).
type CCFairParams struct {
	ProtoA string // "tfrc" or a cc controller name
	ProtoB string
	FlowsA int
	FlowsB int

	Topology    string // "dumbbell" or "parkinglot"
	Bottlenecks int    // parking-lot depth; ignored for the dumbbell

	RTTs     []float64 // grid axis: two-way propagation delay, seconds
	LinkMbps []float64 // grid axis: bottleneck bandwidth
	Queue    netsim.QueueKind
	Duration float64
	Warmup   float64
	Seed     int64

	// Seeds > 1 repeats every cell at that many seeds, reporting means
	// with 90% confidence half-widths on the throughput ratio.
	Seeds int
}

// DefaultCCFair is the laptop-scale grid: TFRC vs Reno on a dumbbell.
func DefaultCCFair() CCFairParams {
	return CCFairParams{
		ProtoA:      "tfrc",
		ProtoB:      "reno",
		FlowsA:      2,
		FlowsB:      2,
		Topology:    "dumbbell",
		Bottlenecks: 2,
		RTTs:        []float64{0.06, 0.12},
		LinkMbps:    []float64{4, 8},
		Queue:       netsim.QueueRED,
		Duration:    60,
		Warmup:      20,
		Seed:        1,
	}
}

// PaperCCFair is the longer grid -preset paper selects.
func PaperCCFair() CCFairParams {
	p := DefaultCCFair()
	p.Duration, p.Warmup = 240, 60
	p.RTTs = []float64{0.03, 0.06, 0.12, 0.24}
	p.LinkMbps = []float64{4, 8, 16}
	p.Seeds = 3
	return p
}

// Validate implements Params.
func (p *CCFairParams) Validate() error {
	var v checks
	for _, proto := range []string{p.ProtoA, p.ProtoB} {
		if proto != "tfrc" && !cc.Known(proto) {
			v.fail("unknown protocol %q (want tfrc or one of %v)", proto, cc.Names())
		}
	}
	check(&v, p.FlowsA >= 1 && p.FlowsB >= 1, "need at least one flow per protocol, got %d vs %d", p.FlowsA, p.FlowsB)
	if p.Topology != "dumbbell" && p.Topology != "parkinglot" {
		v.fail("unknown topology %q (want dumbbell or parkinglot)", p.Topology)
	}
	check(&v, p.Topology != "parkinglot" || p.Bottlenecks >= 1, "parkinglot needs Bottlenecks >= 1, got %d", p.Bottlenecks)
	nonEmpty(&v, "RTTs", len(p.RTTs))
	nonEmpty(&v, "LinkMbps", len(p.LinkMbps))
	for _, rtt := range p.RTTs {
		check(&v, rtt > 0.004, "RTTs must exceed the 4 ms of access delay, got %v", rtt)
	}
	positive(&v, "LinkMbps", p.LinkMbps...)
	window(&v, "Warmup", p.Warmup, "Duration", p.Duration)
	nonNegative(&v, "Seeds", p.Seeds)
	return v.err
}

// ccfair is the grid, RTT-major, bandwidth next, replicate-minor.
func init() {
	Define(Spec[CCFairParams, CCFairCell, *CCFairResult]{
		Name:        "ccfair",
		Description: "head-to-head fairness grid for the congestion-control zoo",
		Default:     DefaultCCFair,
		Presets:     map[string]func() CCFairParams{"paper": PaperCCFair},
		Cells: func(p *CCFairParams) int {
			return len(p.RTTs) * len(p.LinkMbps) * replicas(p.Seeds)
		},
		Cell: func(sched *sim.Scheduler, p *CCFairParams, idx int) CCFairCell {
			at := unravel(idx, len(p.RTTs), len(p.LinkMbps), replicas(p.Seeds))
			return runCCFairCell(sched, *p, p.RTTs[at[0]], p.LinkMbps[at[1]], replicaSeed(p.Seed, at[2]))
		},
		Reduce: ccfairReduce,
	})
}

// CCFairCell is one (RTT, bandwidth, seed) cell of the grid.
type CCFairCell struct {
	RTT      float64
	LinkMbps float64

	Jain    float64 // Jain fairness index over all A and B flows
	ShareA  float64 // protocol A's fraction of the combined goodput
	ShareB  float64
	RatioAB float64 // per-flow mean throughput of A over B (capped at 1e6)

	QueueDelay  float64 // mean bottleneck queueing delay, seconds
	LossRate    float64 // bottleneck drop fraction after warmup
	Utilization float64

	Seeds     int
	RatioABCI float64
}

// CCFairResult is the grid.
type CCFairResult struct {
	Params CCFairParams
	Cells  []CCFairCell
}

// jain is the Jain fairness index: (Σx)² / (n·Σx²), 1 when all equal.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// ccfairRatioCap bounds the A:B throughput ratio so a fully starved B
// still yields a finite, JSON-encodable number.
const ccfairRatioCap = 1e6

// ccfairAdd places one flow of the named protocol on host pair (src,
// dst), returning its flow ID.
func ccfairAdd(b *ScenarioBuilder, proto, src, dst string, seed int64, start float64) int {
	if proto == "tfrc" {
		return b.AddTFRC(src, dst, houseTFRC(seed), start)
	}
	return b.AddCC(cc.Name(proto), cc.Config{}, src, dst, houseTCP(seed), start)
}

// runCCFairCell runs one (rtt, bandwidth, seed) cell on the worker's
// pinned arena. Flow IDs are assigned A-first then B, and start times
// are drawn in that same order, so shards reproduce the exact event
// sequence of a single-machine run.
func runCCFairCell(sched *sim.Scheduler, pr CCFairParams, rtt, linkMbps float64, seed int64) CCFairCell {
	rng := sched.NewRand(seed)
	bw := linkMbps * 1e6
	nflows := pr.FlowsA + pr.FlowsB
	queueLimit, red := houseQueue(bw, rtt)

	var b *ScenarioBuilder
	var bottleneck string
	switch pr.Topology {
	case "parkinglot":
		pl := netsim.NewParkingLot(sched, netsim.ParkingLotConfig{
			Bottlenecks:   pr.Bottlenecks,
			ThroughPairs:  nflows,
			BottleneckBW:  bw,
			BottleneckDly: rtt/2/float64(pr.Bottlenecks) - 0.002/float64(pr.Bottlenecks),
			Queue:         pr.Queue,
			QueueLimit:    queueLimit,
			RED:           red,
		}, sched.NewRand(seed+1))
		b = NewScenarioBuilder(pl.Topo)
		bottleneck = pl.BottleneckName(0)
	default: // dumbbell
		d := netsim.NewDumbbell(sched, netsim.DumbbellConfig{
			Hosts:         nflows,
			BottleneckBW:  bw,
			BottleneckDly: rtt/2 - 0.002, // 1 ms access on each side
			Queue:         pr.Queue,
			QueueLimit:    queueLimit,
			RED:           red,
		}, sched.NewRand(seed+1))
		b = NewScenarioBuilder(d.Topo)
		bottleneck = "rl->rr"
	}

	primary := b.MonitorLink(bottleneck, 0.5, pr.Warmup)
	b.MonitorUtilization(bottleneck, pr.Warmup)
	b.MonitorQueue(bottleneck, 0.05, pr.Duration)

	srcs, dsts := "l", "r" // host pair i is l{i}→r{i}, or ts{i}→td{i} on the parking lot
	if pr.Topology == "parkinglot" {
		srcs, dsts = "ts", "td"
	}
	src := func(i int) string { return netsim.IndexedName(srcs, i) }
	dst := func(i int) string { return netsim.IndexedName(dsts, i) }
	start := func() float64 { return rng.Uniform(0, 5) }
	flowsA := make([]int, 0, pr.FlowsA)
	flowsB := make([]int, 0, pr.FlowsB)
	for i := 0; i < pr.FlowsA; i++ {
		flowsA = append(flowsA, ccfairAdd(b, pr.ProtoA, src(i), dst(i), seed, start()))
	}
	for i := 0; i < pr.FlowsB; i++ {
		j := pr.FlowsA + i
		flowsB = append(flowsB, ccfairAdd(b, pr.ProtoB, src(j), dst(j), seed, start()))
	}

	res := b.Run(pr.Duration)

	rate := func(f int) float64 { // bytes/sec after warmup
		return stats.Mean(primary.Series(f, res.Bins)) / res.BinWidth
	}
	all := make([]float64, 0, nflows)
	var sumA, sumB float64
	for _, f := range flowsA {
		r := rate(f)
		sumA += r
		all = append(all, r)
	}
	for _, f := range flowsB {
		r := rate(f)
		sumB += r
		all = append(all, r)
	}

	cell := CCFairCell{
		RTT:         rtt,
		LinkMbps:    linkMbps,
		Jain:        jain(all),
		LossRate:    primary.DropRate(),
		Utilization: res.Utilization,
		// Mean queue occupancy (packets) drains at bw: nominal 1000-byte
		// packets give the mean queueing delay a packet experiences.
		QueueDelay: res.QueueMean * 8 * 1000 / bw,
	}
	if total := sumA + sumB; total > 0 {
		cell.ShareA = sumA / total
		cell.ShareB = sumB / total
	}
	perA := sumA / float64(pr.FlowsA)
	perB := sumB / float64(pr.FlowsB)
	switch {
	case perB > 0:
		cell.RatioAB = min(perA/perB, ccfairRatioCap)
	case perA > 0:
		cell.RatioAB = ccfairRatioCap // B fully starved
	default:
		cell.RatioAB = 1 // nothing moved at all
	}
	b.Release()
	return cell
}

// ccfairReduce aggregates each (RTT, bandwidth) point's seeds in order.
func ccfairReduce(pr *CCFairParams, raw []CCFairCell) *CCFairResult {
	return &CCFairResult{Params: *pr, Cells: reducePoints(raw, pr.Seeds, func(cell *CCFairCell, group []CCFairCell) {
		cell.Seeds = len(group)
		cell.Jain, _ = meanCI(group, func(c *CCFairCell) float64 { return c.Jain })
		cell.ShareA, _ = meanCI(group, func(c *CCFairCell) float64 { return c.ShareA })
		cell.ShareB = 1 - cell.ShareA
		cell.QueueDelay, _ = meanCI(group, func(c *CCFairCell) float64 { return c.QueueDelay })
		cell.LossRate, _ = meanCI(group, func(c *CCFairCell) float64 { return c.LossRate })
		cell.Utilization, _ = meanCI(group, func(c *CCFairCell) float64 { return c.Utilization })
		cell.RatioAB, cell.RatioABCI = meanCI(group, func(c *CCFairCell) float64 { return c.RatioAB })
	})}
}

// ccfairColumns is one row per (RTT, bandwidth) point.
var ccfairColumns = []column[CCFairCell]{
	{"rtt", "%.3f", func(c *CCFairCell) any { return c.RTT }, nil},
	{"mbps", "%.0f", func(c *CCFairCell) any { return c.LinkMbps }, nil},
	{"jain", "%.3f", func(c *CCFairCell) any { return c.Jain }, nil},
	{"shareA", "%.3f", func(c *CCFairCell) any { return c.ShareA }, nil},
	{"shareB", "%.3f", func(c *CCFairCell) any { return c.ShareB }, nil},
	{"ratioAB", "%.3f", func(c *CCFairCell) any { return c.RatioAB }, func(c *CCFairCell) any { return c.RatioABCI }},
	{"qdelay", "%.4f", func(c *CCFairCell) any { return c.QueueDelay }, nil},
	{"loss", "%.4f", func(c *CCFairCell) any { return c.LossRate }, nil},
	{"util", "%.3f", func(c *CCFairCell) any { return c.Utilization }, nil},
}

// Table implements Result.
func (r *CCFairResult) Table(w io.Writer) {
	p := &r.Params
	fmt.Fprintf(w, "# ccfair: %d %s flow(s) vs %d %s flow(s) on a %s",
		p.FlowsA, p.ProtoA, p.FlowsB, p.ProtoB, p.Topology)
	if p.Topology == "parkinglot" {
		fmt.Fprintf(w, " (%d bottlenecks)", p.Bottlenecks)
	}
	fmt.Fprintf(w, ", %s queues\n", p.Queue)
	fmt.Fprintf(w, "# shareA/shareB: fraction of combined goodput; ratioAB: per-flow A over per-flow B\n")
	writeColumns(w, ccfairColumns, r.Cells, p.Seeds > 1)
}
