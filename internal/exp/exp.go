// Package exp implements one experiment per figure of the paper's
// evaluation (Figures 2-21). Each experiment is a Spec — parameters, a
// pure per-cell function, a reducer — that Define turns into a registry
// Descriptor with a shardable Grid, run by name through RunExperiment;
// Table methods emit gnuplot-ready rows matching the series the paper
// plots. Scaled-down defaults keep test and benchmark
// runtimes laptop-friendly; the CLI can run paper-scale parameters.
//
// What is not particular to one experiment is stated once: Validate
// methods are written in the vocabulary of checks.go, tables with CI
// columns and trace blocks with table.go, and testbed.go holds the
// house testbed of the paper's §4 — a bottleneck buffered to one
// bandwidth-delay product with RED thresholds to match, jittered SACK
// TCP against jittered TFRC. A new dumbbell experiment starts from
// houseDumbbell and placeMix (houseQueue, houseTCP and houseTFRC for
// another topology or placement); a transient on it is a fault program
// for faultphase, not a new experiment.
package exp

import (
	"cmp"
	"math"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/stats"
	"tfrc/internal/tcp"
	"tfrc/internal/tfrcsim"
	"tfrc/internal/traffic"
)

// Scenario describes one dumbbell simulation mixing TCP and TFRC flows —
// the shared substrate of Figures 6-14.
type Scenario struct {
	NTCP  int
	NTFRC int

	BottleneckBW  float64 // bits/sec
	BottleneckDly float64 // one-way, seconds; default 0.025
	Queue         netsim.QueueKind
	QueueLimit    int     // packets; 0 → one bandwidth-delay product
	REDMin        float64 // 0 → QueueLimit/10
	REDMax        float64 // 0 → QueueLimit/2

	// RTTJitterMin/Max give per-host access delays so base RTTs spread
	// uniformly (Figure 9 footnote: RTTs uniform in [80, 120] ms). Zero
	// values give 1 ms access links.
	AccessDlyMin, AccessDlyMax float64

	TCPVariant     tcp.Variant
	TCPGranularity float64
	TCPAggressive  bool // Solaris-like spurious-RTO sender (§4.3)
	TFRC           tfrcsim.Config

	// OnOffSources adds N Pareto ON/OFF background sources with the
	// §4.1.3 parameters (traffic.DefaultOnOff).
	OnOffSources int

	// MiceLoad adds short-TCP background at roughly this fraction of the
	// bottleneck (§4.2), plus a small amount of reverse-path traffic.
	MiceLoad float64

	Duration float64 // seconds of simulated time
	Warmup   float64 // measurement start
	BinWidth float64 // base measurement bin (seconds); default 0.1

	// StaggerStarts spreads flow start times over this many seconds
	// (default: 10% of duration, max 10 s).
	StaggerStarts float64

	Seed int64
}

// Validate checks the scenario for parameter mistakes that would
// otherwise produce an empty or meaningless result. Zero-valued fields
// that fill defaults (queue limit, bin width, ...) are fine.
func (sc *Scenario) Validate() error {
	var v checks
	nonNegative(&v, "NTCP", sc.NTCP)
	nonNegative(&v, "NTFRC", sc.NTFRC)
	positive(&v, "BottleneckBW", sc.BottleneckBW)
	positive(&v, "Duration", sc.Duration)
	window(&v, "Warmup", sc.Warmup, "Duration", sc.Duration)
	nonNegative(&v, "OnOffSources", sc.OnOffSources)
	nonNegative(&v, "MiceLoad", sc.MiceLoad)
	nonNegative(&v, "BinWidth", sc.BinWidth)
	binCount(&v, sc.Duration, cmp.Or(sc.BinWidth, 0.1)) // zero runs at fill's 0.1 s
	nonNegative(&v, "BottleneckDly", sc.BottleneckDly)
	nonNegative(&v, "QueueLimit", sc.QueueLimit)
	nonNegative(&v, "StaggerStarts", sc.StaggerStarts)
	check(&v, 0 <= sc.AccessDlyMin && sc.AccessDlyMin <= sc.AccessDlyMax, "need 0 <= AccessDlyMin <= AccessDlyMax, got %v..%v", sc.AccessDlyMin, sc.AccessDlyMax)
	nonNegative(&v, "REDMin", sc.REDMin)
	nonNegative(&v, "REDMax", sc.REDMax)
	// Judged as they will run: an explicit threshold is held against
	// the other one's default too.
	_, lo, hi := sc.buffer()
	check(&v, sc.Queue != netsim.QueueRED || lo < hi, "need REDMin < REDMax, got %v and %v (defaults filled in)", lo, hi)
	return v.err
}

// buffer returns the bottleneck's queue limit and RED thresholds with
// the house defaults standing in for zero fields.
func (sc *Scenario) buffer() (limit int, redMin, redMax float64) {
	limit = sc.QueueLimit
	if limit == 0 {
		limit = houseLimit(sc.BottleneckBW, 0.1)
	}
	redMin, redMax = houseThresholds(limit)
	if sc.REDMin != 0 {
		redMin = sc.REDMin
	}
	if sc.REDMax != 0 {
		redMax = sc.REDMax
	}
	return limit, redMin, redMax
}

func (sc *Scenario) fill() {
	if sc.BottleneckDly == 0 {
		sc.BottleneckDly = 0.025
	}
	sc.QueueLimit, sc.REDMin, sc.REDMax = sc.buffer()
	if sc.BinWidth == 0 {
		sc.BinWidth = 0.1
	}
	if sc.TFRC.Sender.PacketSize == 0 {
		sc.TFRC = tfrcsim.DefaultConfig()
	}
	if sc.StaggerStarts == 0 {
		sc.StaggerStarts = math.Min(sc.Duration/10, 10)
	}
}

// ScenarioResult carries everything the figure experiments extract.
type ScenarioResult struct {
	// TCPSeries and TFRCSeries are per-flow binned byte counts measured
	// at the bottleneck from Warmup on.
	TCPSeries  [][]float64
	TFRCSeries [][]float64
	BinWidth   float64
	Bins       int

	Utilization float64
	DropRate    float64
	QueueMean   float64
	QueueMax    int
	Queue       []netsim.QueueSample

	// FairShare is the per-flow fair share of the bottleneck in
	// bytes/sec counting only the monitored long-lived flows.
	FairShare float64
}

// NormalizedMeanTCP returns the mean TCP throughput normalized so 1.0 is
// a fair share — the z-axis of Figure 6.
func (r *ScenarioResult) NormalizedMeanTCP() float64 {
	return r.normalizedMean(r.TCPSeries)
}

// NormalizedMeanTFRC is the TFRC counterpart.
func (r *ScenarioResult) NormalizedMeanTFRC() float64 {
	return r.normalizedMean(r.TFRCSeries)
}

func (r *ScenarioResult) normalizedMean(series [][]float64) float64 {
	if len(series) == 0 || r.FairShare == 0 {
		return 0
	}
	var sum float64
	for _, s := range series {
		sum += stats.Mean(s) / r.BinWidth / r.FairShare
	}
	return sum / float64(len(series))
}

// NormalizedPerFlow returns each flow's normalized throughput — the
// points of Figure 7.
func (r *ScenarioResult) NormalizedPerFlow(series [][]float64) []float64 {
	out := make([]float64, len(series))
	for i, s := range series {
		out[i] = stats.Mean(s) / r.BinWidth / r.FairShare
	}
	return out
}

// RunScenario builds the dumbbell, starts the flows and background, runs
// the clock, and harvests measurements. It is a preset over
// ScenarioBuilder: the dumbbell topology, one monitor set on the
// congested link, and the paper's flow mix, in a fixed deterministic
// order. The simulation runs on a scheduler from the executor's pool,
// which it rewinds first and releases after the harvest, so repeated
// calls reuse a warm arena; the result is harvested into fresh storage
// the caller owns, valid for good. Grid cells pass the scheduler they
// are handed to runScenarioCell directly.
func RunScenario(sc Scenario) *ScenarioResult {
	sched := schedPool.Get().(*sim.Scheduler)
	defer schedPool.Put(sched)
	sched.Reset()
	b := buildScenario(sched, sc)
	defer b.Release()
	return b.Run(sc.Duration)
}

// runScenarioCell is RunScenario on a rewound worker scheduler, harvested
// in place: the result's series and queue trace live in storage the
// scheduler's arenas keep. Releasing the builder rewinds the scheduler
// but leaves that storage as it is, so the result is valid until the
// next scenario is built on the scheduler. A grid cell reads it there,
// and clones exactly the slices it keeps.
func runScenarioCell(sched *sim.Scheduler, sc Scenario) ScenarioResult {
	b := buildScenario(sched, sc)
	defer b.Release()
	return b.runInPlace(sc.Duration)
}

// cloneSeries copies series a grid cell keeps out of its in-place
// harvest, into one fresh slab.
func cloneSeries(series [][]float64) [][]float64 {
	if series == nil {
		return nil
	}
	n := 0
	for _, s := range series {
		n += len(s)
	}
	slab := make([]float64, 0, n)
	out := make([][]float64, len(series))
	for i, s := range series {
		slab = append(slab, s...)
		out[i] = slab[len(slab)-len(s) : len(slab) : len(slab)]
	}
	return out
}

// buildScenario builds sc's dumbbell, flows and monitors on a rewound
// sched, ready to run.
func buildScenario(sched *sim.Scheduler, sc Scenario) *ScenarioBuilder {
	sc.fill()
	rng := sched.NewRand(sc.Seed)

	hosts := sc.NTCP + sc.NTFRC
	extra := 0
	if sc.OnOffSources > 0 || sc.MiceLoad > 0 {
		extra = 1 // a dedicated host pair carries all background traffic
	}
	mem := builderArenaOf(sched)
	mem.accessDly = append(mem.accessDly[:0], make([]float64, hosts+extra)...)
	accessDly := mem.accessDly
	for i := range accessDly {
		if sc.AccessDlyMax > 0 {
			accessDly[i] = rng.Uniform(sc.AccessDlyMin, sc.AccessDlyMax)
		} else {
			accessDly[i] = 0.001
		}
	}
	red := netsim.DefaultRED(sc.QueueLimit)
	red.MinThresh = sc.REDMin
	red.MaxThresh = sc.REDMax
	d := netsim.NewDumbbell(sched, netsim.DumbbellConfig{
		Hosts:         hosts + extra,
		BottleneckBW:  sc.BottleneckBW,
		BottleneckDly: sc.BottleneckDly,
		Queue:         sc.Queue,
		QueueLimit:    sc.QueueLimit,
		RED:           red,
		AccessDly:     accessDly,
		PktBytes:      sc.TFRC.Sender.PacketSize, // capacity-aware queues drain at the real packet size
	}, sched.NewRand(sc.Seed+1))

	b := NewScenarioBuilder(d.Topo)
	b.MonitorLink("rl->rr", sc.BinWidth, sc.Warmup)
	b.MonitorUtilization("rl->rr", sc.Warmup)
	b.MonitorQueue("rl->rr", 0.05, sc.Duration)

	// Start times are drawn inline (not through a closure) so the cell's
	// setup path builds no per-call function values.
	left := func(h int) string { return netsim.IndexedName("l", h) }
	right := func(h int) string { return netsim.IndexedName("r", h) }
	tc := houseTCP(sc.Seed)
	tc.Variant, tc.Granularity, tc.AggressiveRTO = sc.TCPVariant, sc.TCPGranularity, sc.TCPAggressive
	for i := 0; i < sc.NTCP; i++ {
		b.AddTCP(left(i), right(i), tc, rng.Uniform(0, sc.StaggerStarts))
	}
	tf := jittered(sc.TFRC, sc.Seed)
	for i := 0; i < sc.NTFRC; i++ {
		h := sc.NTCP + i
		b.AddTFRC(left(h), right(h), tf, rng.Uniform(0, sc.StaggerStarts))
	}

	if extra > 0 {
		bg := hosts // the background host pair index
		for i := 0; i < sc.OnOffSources; i++ {
			b.AddOnOff(left(bg), right(bg), traffic.DefaultOnOff(),
				sched.NewRand(sc.Seed+100+int64(i)), rng.Uniform(0, 3))
		}
		if sc.MiceLoad > 0 {
			// Sessions sized so offered load ≈ MiceLoad·bottleneck:
			// rate = meanSize·pktSize·8/interarrival.
			meanSize := 20.0
			inter := meanSize * 1000 * 8 / (sc.MiceLoad * sc.BottleneckBW)
			b.AddMice(left(bg), right(bg), traffic.MiceConfig{
				MeanInterarrival: inter,
				MeanSize:         meanSize,
				Variant:          tcp.Sack,
			}, sched.NewRand(sc.Seed+7), 0.5)
			// A whiff of reverse traffic so ACK paths are not pristine.
			b.AddOnOff(right(bg), left(bg),
				traffic.OnOffConfig{MeanOn: 0.5, MeanOff: 4, Shape: 1.5,
					Rate: 0.02 * sc.BottleneckBW, PacketSize: 1000},
				sched.NewRand(sc.Seed+8), 1)
		}
	}
	return b
}
