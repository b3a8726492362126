package exp

import (
	"fmt"
	"io"
	"math"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/stats"
	"tfrc/internal/tfrcsim"
)

// ManyFlowsParams is the million-flow scaling experiment: one bottleneck
// shared by a decade ladder of concurrent TFRC flows (10^3, 10^4, …),
// with the bottleneck provisioned at a fixed per-flow rate so the fair
// share stays constant while the population grows three orders of
// magnitude. Each decade reports whether equation-based control still
// divides the link fairly at that scale — aggregate utilization, the
// Jain fairness index, the distribution of per-flow normalized
// throughput, and the distribution of receiver loss estimates. It earns
// its place as the study of per-flow cost at scale, which the
// manyflows10k benchmark workload times.
//
// The decades lean on the scaling machinery this experiment exists to
// exercise: flows live in chunked agent slabs, per-flow series in
// struct-of-arrays monitor columns, feedback and no-feedback timers on a
// shared coarse timer wheel (one scheduler event per tick, not per
// flow), and delivery by one index into each end host's port table:
// flow i binds port i+1 on both hosts, so at a million flows the table
// is a million entries long and every entry past 0 is bound.
type ManyFlowsParams struct {
	Flows           []int   // decade axis: concurrent flows per cell
	PerFlowKbps     float64 // bottleneck capacity per flow (kbit/s)
	RTT             float64 // base two-way propagation delay (seconds)
	PacketSize      int
	Duration        float64 // simulated seconds per decade
	Warmup          float64 // settling time before measurement begins
	CoarseTimerTick float64 // feedback-timer wheel tick (seconds); 0 = exact timers
	Seed            int64
}

// DefaultManyFlows is the laptop-scale ladder: 1k → 100k flows. The
// operating point is ~5 packets per RTT per flow (200 kb/s at RTT
// 200 ms), where the control equation's equilibrium loss rate is a
// realistic few percent; a much smaller share per RTT would need a loss
// rate beyond what the equation can express and every flow would sit in
// the timeout-dominated regime.
//
// The warmup covers the slow-start transient: a flow whose first loss
// event arrives while it is far above its fair share seeds its loss
// history there (§3.4.1) and takes several Average-Loss-Interval windows
// — seconds — to walk back down, so measuring earlier reports the
// transient, not the protocol's operating point.
func DefaultManyFlows() ManyFlowsParams {
	return ManyFlowsParams{
		Flows:           []int{1_000, 10_000, 100_000},
		PerFlowKbps:     200,
		RTT:             0.2,
		PacketSize:      1000,
		Duration:        15,
		Warmup:          10,
		CoarseTimerTick: 0.010,
		Seed:            1,
	}
}

// MillionFlows is the full-scale ladder ending at 10^6 concurrent flows
// (the -preset million setup): ~10 GB of working set and a top rung of
// a third of a billion bottleneck packets — expect tens of minutes of
// wall clock.
func MillionFlows() ManyFlowsParams {
	p := DefaultManyFlows()
	p.Flows = []int{10_000, 100_000, 1_000_000}
	return p
}

// Validate implements Params.
func (p *ManyFlowsParams) Validate() error {
	var v checks
	nonEmpty(&v, "Flows", len(p.Flows))
	atLeast(&v, "Flows", 1, p.Flows...)
	positive(&v, "PerFlowKbps", p.PerFlowKbps)
	check(&v, p.RTT >= 0.005, "RTT must be at least 5 ms (access hops use 1 ms each), got %v", p.RTT)
	positive(&v, "PacketSize", p.PacketSize)
	window(&v, "Warmup", p.Warmup, "Duration", p.Duration)
	nonNegative(&v, "CoarseTimerTick", p.CoarseTimerTick)
	return v.err
}

// manyflows is one cell per rung. Rungs share nothing, and each
// builds and releases its own scheduler, so with more than one worker
// rungs overlap and peak memory is the sum of the rungs in flight — at
// most 1.12 × the top rung on a decade ladder; -parallel 1 keeps it to
// the largest rung.
func init() {
	Define(Spec[ManyFlowsParams, ManyFlowsDecade, *ManyFlowsResult]{
		Name:        "manyflows",
		Description: "throughput-fairness and loss distributions vs flow count (1k-1M)",
		Default:     DefaultManyFlows,
		Presets:     map[string]func() ManyFlowsParams{"million": MillionFlows},
		Cells:       func(p *ManyFlowsParams) int { return len(p.Flows) },
		Cell: func(_ *sim.Scheduler, p *ManyFlowsParams, idx int) ManyFlowsDecade {
			return RunManyFlowsDecade(p.Flows[idx], *p)
		},
		Reduce: func(p *ManyFlowsParams, cells []ManyFlowsDecade) *ManyFlowsResult {
			return &ManyFlowsResult{Params: *p, Cells: cells}
		},
	})
}

// manyFlowsQuantiles are the reported distribution points.
var manyFlowsQuantiles = []float64{0.01, 0.10, 0.50, 0.90, 0.99}

// ManyFlowsDecade is one ladder rung: aggregate and distributional
// behavior of N concurrent flows over one bottleneck.
type ManyFlowsDecade struct {
	Flows       int
	Utilization float64   // delivered bytes / bottleneck capacity over the window
	Fairness    float64   // Jain index over per-flow delivered bytes
	ThroughputP []float64 // per-flow throughput / fair share at p1,p10,p50,p90,p99
	LossP       []float64 // receiver loss-event-rate estimates at the same quantiles
	DropRate    float64   // bottleneck drops / arrivals over the whole run

	// DeliveredPkts counts bottleneck departures over the whole run —
	// the work unit the bench harness divides by wall time.
	DeliveredPkts int64
}

// ManyFlowsResult is the ladder.
type ManyFlowsResult struct {
	Params ManyFlowsParams
	Cells  []ManyFlowsDecade
}

// RunManyFlowsDecade runs one rung: n flows across a four-node chain
// src — L — R — dst whose middle link carries n × PerFlowKbps. The
// scheduler is built per call rather than taken from the executor's
// pool: nothing keeps it when the call returns, so a million-flow
// working set goes to the collector instead of staying in an arena
// after the experiment moves on.
func RunManyFlowsDecade(n int, pr ManyFlowsParams) ManyFlowsDecade {
	sched := sim.NewScheduler()
	nw := netsim.New(sched)

	src, rl, rr, dst := nw.NewNode(), nw.NewNode(), nw.NewNode(), nw.NewNode()
	bw := float64(n) * pr.PerFlowKbps * 1000
	accessBW := 4 * bw
	accessDly := 0.001
	bnDly := pr.RTT/2 - 2*accessDly
	// Queue sized to half the bandwidth-delay product, floor 100 packets.
	limit := int(bw * pr.RTT / 2 / (8 * float64(pr.PacketSize)))
	if limit < 100 {
		limit = 100
	}
	// The bottleneck is RED. The paper's fixed 25/125-packet thresholds
	// assume a megabit pipe; at n×200 kb/s they must scale with the
	// buffer or the marking band is a rounding error of the BDP and
	// slow-starting flows capture the link. Likewise Wq: its time
	// constant is measured in arrivals, so at millions of packets per
	// second the paper's 0.002 averages over microseconds — pin the
	// constant to ~an RTT of arrivals instead.
	red := netsim.DefaultRED(limit)
	red.MinThresh = math.Max(25, float64(limit)/20)
	red.MaxThresh = 5 * red.MinThresh
	ptc := bw / 8 / float64(pr.PacketSize)
	red.Wq = math.Min(0.002, math.Max(1e-6, 1/(ptc*pr.RTT)))
	rng := sched.NewRand(pr.Seed)
	generous := func() netsim.Queue { return netsim.NewDropTail(4 * limit) }
	nw.Connect(src, rl, accessBW, accessDly, generous)
	nw.Connect(rl, rr, bw, bnDly, func() netsim.Queue { return netsim.NewRED(red, nw.Now, rng) })
	nw.Connect(rr, dst, accessBW, accessDly, generous)
	nw.BuildRoutes()

	mon := nw.NewFlowMonitor(pr.Duration-pr.Warmup, pr.Warmup)
	mon.Register(n, 1)
	rl.LinkTo(rr).AddTap(mon.Tap())

	cfg := tfrcsim.DefaultConfig()
	cfg.Sender.PacketSize = pr.PacketSize
	cfg.CoarseTimerTick = pr.CoarseTimerTick
	// Pacing jitter desynchronizes the population: every flow shares the
	// same base RTT, so without it rate updates phase-lock, the RED
	// average oscillates through the marking band, and losses arrive in
	// aggregate clusters — under which a flow's loss-event rate scales
	// inversely with its own rate (events merge per RTT) and slow-start
	// winners keep the link. The per-flow generator costs ~5 KB × n.
	cfg.PacingJitter = 0.2
	cfg.JitterSeed = pr.Seed

	// Starts spread across one RTT, not across the warmup: flows that
	// begin while the link is still empty slow-start to hundreds of times
	// their eventual fair share, seed their loss histories at that rate,
	// and then dominate the link for many seconds while the Average Loss
	// Interval walks back down. Starting the whole population within one
	// RTT means the link saturates within a few doubling times and no
	// flow's first loss happens far from its fair share.
	recvs := make([]*tfrcsim.Receiver, n)
	for i := 0; i < n; i++ {
		recvs[i] = tfrcsim.NewReceiver(nw, dst, i+1, i, cfg)
		s := tfrcsim.NewSender(nw, src, dst.ID, i+1, i+1, i, cfg)
		s.Start(pr.RTT * float64(i) / float64(n))
	}
	sched.RunUntil(pr.Duration)

	window := pr.Duration - pr.Warmup
	fair := bw / 8 / float64(n) * window // fair-share bytes over the window
	xs := make([]float64, n)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		b := mon.TotalBytes(i)
		xs[i] = b / fair
		sum += b
		sumSq += b * b
	}
	fairness := 0.0
	if sumSq > 0 {
		fairness = sum * sum / (float64(n) * sumSq)
	}
	cell := ManyFlowsDecade{
		Flows:       n,
		Utilization: sum * 8 / (bw * window),
		Fairness:    fairness,
		ThroughputP: stats.Percentiles(xs, manyFlowsQuantiles...),
		DropRate:    mon.DropRate(),
	}
	for i := 0; i < n; i++ {
		xs[i] = recvs[i].P()
	}
	cell.LossP = stats.Percentiles(xs, manyFlowsQuantiles...)
	_, departs, _ := mon.Stats()
	cell.DeliveredPkts = int64(departs)
	return cell
}

// Table implements Result: one row per decade.
func (r *ManyFlowsResult) Table(w io.Writer) {
	fmt.Fprintln(w, "# Many flows: aggregate behavior vs concurrent flow count")
	fmt.Fprintf(w, "# %.0f kb/s per flow, RTT %.0f ms, RED bottleneck; throughput normalized by the fair share\n",
		r.Params.PerFlowKbps, r.Params.RTT*1000)
	fmt.Fprintln(w, "# flows\tutil\tfairness\tthruP1\tthruP50\tthruP99\tlossP50\tlossP99\tdropRate")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%d\t%.3f\t%.4f\t%.3f\t%.3f\t%.3f\t%.4f\t%.4f\t%.4f\n",
			c.Flows, c.Utilization, c.Fairness,
			c.ThroughputP[0], c.ThroughputP[2], c.ThroughputP[4],
			c.LossP[2], c.LossP[4], c.DropRate)
	}
}
