package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"tfrc/experiment"
	"tfrc/internal/cc"
	"tfrc/internal/exp"
	"tfrc/internal/faults"
	"tfrc/internal/netsim"
	"tfrc/internal/shard"
	"tfrc/internal/sim"
	"tfrc/internal/stats"
	"tfrc/internal/tcp"
	"tfrc/internal/tfrcsim"
	"tfrc/internal/traffic"
)

// sizing fixes how much work one repeat of each workload does. The
// contract sizes are standardSizing; quickSizing is the few-second shape
// the tier-1 test runs.
type sizing struct {
	DumbCells                int
	DumbDuration, DumbWarmup float64

	ManyFlows                int
	ManyDuration, ManyWarmup float64

	GridLinkMbps           []float64
	GridFlows              []int
	GridSeeds              int
	GridDuration, GridTail float64
	Shards                 int

	ZooCells    int
	ZooDuration float64

	// KernelDiv divides every kernel's operation count.
	KernelDiv int
}

func standardSizing() sizing {
	return sizing{
		DumbCells: 32, DumbDuration: 10, DumbWarmup: 2,
		ManyFlows: 10_000, ManyDuration: 5, ManyWarmup: 2,
		GridLinkMbps: []float64{2, 8}, GridFlows: []int{4, 8}, GridSeeds: 8,
		GridDuration: 15, GridTail: 10, Shards: 4,
		ZooCells: 8, ZooDuration: 20,
		KernelDiv: 1,
	}
}

func quickSizing() sizing {
	return sizing{
		DumbCells: 2, DumbDuration: 10, DumbWarmup: 2,
		ManyFlows: 300, ManyDuration: 5, ManyWarmup: 2,
		GridLinkMbps: []float64{2}, GridFlows: []int{4}, GridSeeds: 2,
		GridDuration: 15, GridTail: 10, Shards: 2,
		ZooCells: 1, ZooDuration: 20,
		KernelDiv: 50,
	}
}

// workload is one set of inputs. repeat is the untraced path a user of
// the repo runs, through the public entry points; traced is the
// benchmark's own rebuild of the same simulation from the layers'
// constructors, with spans and counters around the calls. Both are pure
// in (sizing, seed), so every repeat must return the same bytes.
type workload interface {
	// cells is the number of scenario runs in one repeat.
	cells() int
	// flows is the number of long-lived flows in one cell, 0 when the
	// cells are built behind a public call and never held by the benchmark.
	flows() int
	repeat() any
	// canon renders a repeat's result as the bytes sim_digest hashes.
	canon(res any) []byte
	// check applies the workload's invariants and returns the data
	// packets one repeat moved and the number of cells that failed.
	check(res any, canon []byte) (pkts float64, failed int)
	// traced runs one instrumented repeat under span root. With taps set
	// it also counts packets on every link; that pass is for counts only,
	// its times are not reported.
	traced(tr *tracer, root int, taps bool) (any, tracedStats)
}

// tracedStats is what one traced repeat counted besides its spans.
type tracedStats struct {
	events   int64
	counts   pktCounts
	liveHeap int64 // bytes reachable with a finished cell still held, above what was live at open
}

type workloadInfo struct {
	name, why string
	// children is how many child processes one run starts, one after the
	// other: each pays the full set-up, so a run reports their median.
	children int
	open     func(sz sizing, seed int64, tmp string) (workload, error)
}

var workloads = []workloadInfo{
	{"dumbbell8", "paper's standard cell (4 TCP + 4 TFRC, 8 Mb/s RED dumbbell) on the warm pooled cell: per-packet fast path of sim, netsim, tcp+cc Reno, tfrcsim/core; set-up and memory negligible", 5, openDumbbell8},
	{"manyflows10k", "10,000 TFRC flows on a fresh scheduler: sim at ~1e5 resident events plus the timer wheel, per-flow construction and state dominate allocation; TCP and cc idle, the bypass for ACK-path changes", 2, openManyFlows},
	{"sweepgrid", "64-cell fig-6 grid through experiment.Run + WriteJSON at 2 workers, as 'tfrcsim run' does: short cells, so exp build/reset/harvest, sweep scheduling, reduce and marshal show; half DropTail", 5, openSweepGrid},
	{"shardmerge", "same grid as 4 shard.Run slices with per-cell checkpoints, envelope files, Merge, Reduce: the exp/sweep layers with writes beside reads (JSON round-trips, fsync+rename); bytes must equal sweepgrid's", 3, openShardMerge},
	{"zoo-lossy", "3-bottleneck DropTail parking lot, reno/vegas/ledbat/relentless SACK senders + TFRC, ON/OFF and mice cross traffic, reorder/duplicate/corrupt/bandwidth faults: tcp, cc, netsim off their fast path", 5, openZoo},
}

// offContract names the workloads BENCHMARK.json leaves out, and why. A
// full run measures and reports them like the rest, and --workload still
// runs them one at a time; only the contract's runs and bounds pass them
// by.
var offContract = map[string]string{
	"manyflows10k": "its 400 MB working set makes it follow the shared host's memory contention, which drifts over minutes: unchanged code spread 20-23 % between runs, past any bound the contract allows",
}

func findWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("benchmark: result does not marshal: %v", err))
	}
	return b
}

func sumSeries(series [][]float64) float64 {
	var sum float64
	for _, s := range series {
		for _, v := range s {
			sum += v
		}
	}
	return sum
}

// cellTrace instruments one replica cell. A nil *cellTrace runs the cell
// plain, which is how zoo-lossy's untraced path shares its builder.
type cellTrace struct {
	tr         *tracer
	root, cell int
	counts     *pktCounts // non-nil: tap every link
	baseline   int64      // live heap when the workload was opened, before anything was built
	events     int64
	liveHeap   int64
}

func (h *cellTrace) span(name string, fn func()) {
	if h == nil {
		fn()
		return
	}
	h.tr.in(name, h.root, h.cell, fn)
}

// loop runs the event loop to end under a "run" span, counting events.
// Plain cells skip it: their harvest call runs the clock itself.
func (h *cellTrace) loop(nw *netsim.Network, isTFRC func(int) bool, end float64) {
	if h == nil {
		return
	}
	if h.counts != nil {
		tapAll(nw, isTFRC, h.counts)
	}
	h.span("run", func() { h.events += stepUntil(nw.Scheduler(), end) })
	if h.counts != nil {
		// The finished scenario is still reachable through the caller's
		// builder; this pass's times are not reported, so the forced
		// collection costs nothing that is measured.
		h.liveHeap = liveHeap() - h.baseline
	}
}

// tracedCells runs n replica cells under span root, each with its own
// cellTrace, and adds up what they counted.
func tracedCells(tr *tracer, root int, taps bool, baseline int64, n int, cell func(h *cellTrace, i int)) tracedStats {
	var st tracedStats
	for i := 0; i < n; i++ {
		h := &cellTrace{tr: tr, root: tr.begin("cell", root, i), cell: i, baseline: baseline}
		if taps {
			h.counts = &pktCounts{}
		}
		cell(h, i)
		tr.end(h.root)
		st.events += h.events
		st.liveHeap = h.liveHeap
		if taps {
			st.counts.add(*h.counts)
		}
	}
	return st
}

// ---------------------------------------------------------------- dumbbell8

type dumbbell8 struct {
	sz    sizing
	seed  int64
	base  int64          // live heap at open
	sched *sim.Scheduler // the traced pass's own warm cell
}

func openDumbbell8(sz sizing, seed int64, _ string) (workload, error) {
	return &dumbbell8{sz: sz, seed: seed, base: liveHeap()}, nil
}

func (w *dumbbell8) cells() int { return w.sz.DumbCells }
func (w *dumbbell8) flows() int { return 8 }

func (w *dumbbell8) cellSeed(i int) int64 { return w.seed*1000 + int64(i) }

func (w *dumbbell8) repeat() any {
	out := make([]*exp.ScenarioResult, w.sz.DumbCells)
	for i := range out {
		out[i] = exp.RunScenario(exp.Scenario{
			NTCP: 4, NTFRC: 4,
			BottleneckBW: 8e6,
			Queue:        netsim.QueueRED,
			Duration:     w.sz.DumbDuration,
			Warmup:       w.sz.DumbWarmup,
			Seed:         w.cellSeed(i),
		})
	}
	return out
}

func (w *dumbbell8) canon(res any) []byte { return mustJSON(res) }

func (w *dumbbell8) check(res any, _ []byte) (pkts float64, failed int) {
	for _, r := range res.([]*exp.ScenarioResult) {
		pkts += (sumSeries(r.TCPSeries) + sumSeries(r.TFRCSeries)) / 1000
		// Over 8 measured seconds one cell's TFRC:TCP ratio ranges over
		// about 0.4..1.7 (416 cells, 13 seeds); the check is that neither
		// protocol starves the other, with room for a seed not yet seen.
		tcpShare, tfrcShare := r.NormalizedMeanTCP(), r.NormalizedMeanTFRC()
		if r.Utilization < 0.8 || tcpShare <= 0 || tfrcShare/tcpShare < 0.2 || tfrcShare/tcpShare > 5 {
			failed++
		}
	}
	return pkts, failed
}

// traced rebuilds exp.RunScenario's cell from the constructors it is a
// preset over, with the defaults that preset fills in written out.
func (w *dumbbell8) traced(tr *tracer, root int, taps bool) (any, tracedStats) {
	if w.sched == nil {
		w.sched = sim.NewScheduler()
		w.sched.Pin()
	}
	out := make([]*exp.ScenarioResult, w.sz.DumbCells)
	st := tracedCells(tr, root, taps, w.base, len(out), func(h *cellTrace, i int) {
		out[i] = w.tracedCell(h, w.cellSeed(i))
	})
	return out, st
}

func (w *dumbbell8) tracedCell(h *cellTrace, seed int64) *exp.ScenarioResult {
	const (
		hosts      = 8
		bw         = 8e6
		queueLimit = 100 // one bandwidth-delay product at 100 ms, 1000-byte packets
		binWidth   = 0.1
		stagger    = 1.0 // a tenth of the duration
	)
	duration, warmup := w.sz.DumbDuration, w.sz.DumbWarmup
	var b *exp.ScenarioBuilder
	h.span("build", func() {
		sched := w.sched
		sched.Reset()
		rng := sched.NewRand(seed)
		accessDly := make([]float64, hosts)
		for i := range accessDly {
			accessDly[i] = 0.001
		}
		red := netsim.DefaultRED(queueLimit)
		red.MinThresh = queueLimit / 10
		red.MaxThresh = queueLimit / 2
		tf := tfrcsim.DefaultConfig()
		d := netsim.NewDumbbell(sched, netsim.DumbbellConfig{
			Hosts:         hosts,
			BottleneckBW:  bw,
			BottleneckDly: 0.025,
			Queue:         netsim.QueueRED,
			QueueLimit:    queueLimit,
			RED:           red,
			AccessDly:     accessDly,
			PktBytes:      tf.Sender.PacketSize,
		}, sched.NewRand(seed+1))

		b = exp.NewScenarioBuilder(d.Topo)
		mon := b.MonitorLink("rl->rr", binWidth, warmup)
		b.MonitorUtilization("rl->rr", warmup)
		b.MonitorQueue("rl->rr", 0.05, duration)
		for i := 0; i < hosts/2; i++ {
			b.AddTCP(netsim.IndexedName("l", i), netsim.IndexedName("r", i), tcp.Config{
				SendJitter: 0.001,
				JitterSeed: seed,
			}, rng.Uniform(0, stagger))
		}
		tf.PacingJitter = 0.05
		tf.JitterSeed = seed
		for i := hosts / 2; i < hosts; i++ {
			b.AddTFRC(netsim.IndexedName("l", i), netsim.IndexedName("r", i), tf, rng.Uniform(0, stagger))
		}
		mon.Register(hosts, int((duration-warmup)/binWidth)+2)
	})
	h.loop(b.Network(), func(flow int) bool { return flow >= hosts/2 }, duration)
	var res *exp.ScenarioResult
	h.span("harvest", func() { res = b.Run(duration) })
	h.span("release", b.Release)
	return res
}

// ------------------------------------------------------------- manyflows10k

type manyFlows struct {
	sz   sizing
	seed int64
	base int64 // live heap at open
}

func openManyFlows(sz sizing, seed int64, _ string) (workload, error) {
	return &manyFlows{sz: sz, seed: seed, base: liveHeap()}, nil
}

func (w *manyFlows) cells() int { return 1 }
func (w *manyFlows) flows() int { return w.sz.ManyFlows }

func (w *manyFlows) params() exp.ManyFlowsParams {
	pr := exp.DefaultManyFlows()
	pr.Duration, pr.Warmup, pr.Seed = w.sz.ManyDuration, w.sz.ManyWarmup, w.seed
	return pr
}

func (w *manyFlows) repeat() any { return exp.RunManyFlowsDecade(w.sz.ManyFlows, w.params()) }

func (w *manyFlows) canon(res any) []byte { return mustJSON(res) }

func (w *manyFlows) check(res any, _ []byte) (pkts float64, failed int) {
	c := res.(exp.ManyFlowsDecade)
	// The 3 s window after a 2 s warm-up still holds the slow-start
	// transient (the experiment's own defaults settle for 10 s), so the
	// Jain index says nothing here. What must hold is that the link is
	// busy and the median flow gets a real share of it: 13 seeds gave
	// utilization 0.84..0.98 and a median flow at 0.49..0.61 of fair.
	if c.Utilization < 0.7 || len(c.ThroughputP) != 5 || c.ThroughputP[2] < 0.25 {
		failed = 1
	}
	return float64(c.DeliveredPkts), failed
}

// traced is exp.RunManyFlowsDecade rebuilt from the sim, netsim and
// tfrcsim constructors it calls, statement for statement.
func (w *manyFlows) traced(tr *tracer, root int, taps bool) (any, tracedStats) {
	var cell exp.ManyFlowsDecade
	st := tracedCells(tr, root, taps, w.base, 1, func(h *cellTrace, _ int) { cell = w.tracedCell(h) })
	return cell, st
}

func (w *manyFlows) tracedCell(h *cellTrace) exp.ManyFlowsDecade {
	n, pr := w.sz.ManyFlows, w.params()

	var (
		nw    *netsim.Network
		mon   *netsim.FlowMonitor
		recvs []*tfrcsim.Receiver
		bw    float64
	)
	h.span("build", func() {
		sched := sim.NewScheduler()
		sched.Pin()
		nw = netsim.New(sched)
		src, rl, rr, dst := nw.NewNode(), nw.NewNode(), nw.NewNode(), nw.NewNode()
		bw = float64(n) * pr.PerFlowKbps * 1000
		accessBW := 4 * bw
		accessDly := 0.001
		bnDly := pr.RTT/2 - 2*accessDly
		limit := int(bw * pr.RTT / 2 / (8 * float64(pr.PacketSize)))
		if limit < 100 {
			limit = 100
		}
		red := netsim.DefaultRED(limit)
		red.MinThresh = math.Max(25, float64(limit)/20)
		red.MaxThresh = 5 * red.MinThresh
		ptc := bw / 8 / float64(pr.PacketSize)
		red.Wq = math.Min(0.002, math.Max(1e-6, 1/(ptc*pr.RTT)))
		rng := sched.NewRand(pr.Seed)
		newQueue := func() netsim.Queue { return netsim.NewRED(red, nw.Now, rng) }
		generous := func() netsim.Queue { return netsim.NewDropTail(4 * limit) }
		nw.Connect(src, rl, accessBW, accessDly, generous)
		nw.Connect(rl, rr, bw, bnDly, newQueue)
		nw.Connect(rr, dst, accessBW, accessDly, generous)
		nw.BuildRoutes()

		mon = nw.NewFlowMonitor(pr.Duration-pr.Warmup, pr.Warmup)
		mon.Register(n, 1)
		rl.LinkTo(rr).AddTap(mon.Tap())

		cfg := tfrcsim.DefaultConfig()
		cfg.Sender.PacketSize = pr.PacketSize
		cfg.CoarseTimerTick = pr.CoarseTimerTick
		cfg.PacingJitter = 0.2
		cfg.JitterSeed = pr.Seed
		recvs = make([]*tfrcsim.Receiver, n)
		for i := 0; i < n; i++ {
			recvs[i] = tfrcsim.NewReceiver(nw, dst, i+1, i, cfg)
			s := tfrcsim.NewSender(nw, src, dst.ID, i+1, i+1, i, cfg)
			s.Start(pr.RTT * float64(i) / float64(n))
		}
	})
	h.loop(nw, func(int) bool { return true }, pr.Duration)

	var cell exp.ManyFlowsDecade
	h.span("harvest", func() {
		nw.Scheduler().RunUntil(pr.Duration)
		quantiles := []float64{0.01, 0.10, 0.50, 0.90, 0.99}
		window := pr.Duration - pr.Warmup
		fair := bw / 8 / float64(n) * window
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
		cell = exp.ManyFlowsDecade{
			Flows:       n,
			Utilization: sum * 8 / (bw * window),
			Fairness:    fairness,
			ThroughputP: stats.Percentiles(xs, quantiles...),
			DropRate:    mon.DropRate(),
		}
		for i := 0; i < n; i++ {
			xs[i] = recvs[i].P()
		}
		cell.LossP = stats.Percentiles(xs, quantiles...)
		_, departs, _ := mon.Stats()
		cell.DeliveredPkts = int64(departs)
	})
	h.span("release", nw.Scheduler().Release)
	return cell
}

// ------------------------------------------------- sweepgrid and shardmerge

type grid struct {
	sz      sizing
	desc    experiment.Descriptor
	params  *exp.Fig06Params
	sharded bool
	plain   []byte // shardmerge: what the plain run writes, computed in set-up
	tmp     string // shardmerge: where each repeat makes its fresh directory
}

// gridResult is one repeat's output; dir is the scratch directory check
// removes once the bytes are read.
type gridResult struct {
	out []byte
	err error
	dir string
}

func openGrid(sz sizing, seed int64) (*grid, error) {
	desc, err := experiment.Get("fig6")
	if err != nil {
		return nil, err
	}
	p, ok := desc.Params().(*exp.Fig06Params)
	if !ok {
		return nil, fmt.Errorf("fig6 params are %T, not *exp.Fig06Params", desc.Params())
	}
	*p = exp.Fig06Params{
		LinkMbps:    sz.GridLinkMbps,
		TotalFlows:  sz.GridFlows,
		Queues:      []netsim.QueueKind{netsim.QueueDropTail, netsim.QueueRED},
		Duration:    sz.GridDuration,
		MeasureTail: sz.GridTail,
		Seed:        seed,
		Seeds:       sz.GridSeeds,
	}
	experiment.SetParallelism(sweepWorkers)
	return &grid{sz: sz, desc: desc, params: p}, nil
}

func openSweepGrid(sz sizing, seed int64, _ string) (workload, error) {
	g, err := openGrid(sz, seed)
	if err != nil {
		return nil, err
	}
	return g, nil
}

func openShardMerge(sz sizing, seed int64, tmp string) (workload, error) {
	g, err := openGrid(sz, seed)
	if err != nil {
		return nil, err
	}
	g.sharded = true
	g.tmp = tmp
	r := g.runPlain(nil, 0)
	if r.err != nil {
		return nil, fmt.Errorf("plain run for shardmerge's reference bytes: %w", r.err)
	}
	g.plain = r.out
	return g, nil
}

func (g *grid) reducedCells() int { return 2 * len(g.sz.GridLinkMbps) * len(g.sz.GridFlows) }
func (g *grid) cells() int        { return g.reducedCells() * g.sz.GridSeeds }
func (g *grid) flows() int        { return 0 }

func (g *grid) repeat() any {
	if g.sharded {
		return g.runSharded(nil, 0, true)
	}
	return g.runPlain(nil, 0)
}

func (g *grid) canon(res any) []byte { return res.(gridResult).out }

func (g *grid) check(res any, canon []byte) (pkts float64, failed int) {
	r := res.(gridResult)
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
	if r.err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: grid repeat: %v\n", r.err)
		return 0, g.cells()
	}
	var rec struct {
		Result struct{ Cells []exp.Fig06Cell }
	}
	if err := json.Unmarshal(canon, &rec); err != nil || len(rec.Result.Cells) != g.reducedCells() {
		return 0, g.cells()
	}
	for _, c := range rec.Result.Cells {
		pkts += float64(g.sz.GridSeeds) * c.Utilization * c.LinkMbps * 1e6 * g.sz.GridTail / 8000
	}
	if g.sharded && !bytes.Equal(canon, g.plain) {
		return pkts, g.cells()
	}
	return pkts, 0
}

// runPlain is what "tfrcsim run fig6 -format json" does.
func (g *grid) runPlain(tr *tracer, root int) gridResult {
	var (
		res experiment.Result
		err error
		buf bytes.Buffer
	)
	tr.in("experiment.run", root, 0, func() { res, err = experiment.Run(g.desc, g.params) })
	if err != nil {
		return gridResult{err: err}
	}
	tr.in("experiment.marshal", root, 0, func() { err = experiment.WriteJSON(&buf, g.desc.Name, g.params, res) })
	return gridResult{out: buf.Bytes(), err: err}
}

// runSharded is "tfrcsim shard run" once per slice, then "tfrcsim
// merge", in one process: every slice checkpoints after each cell (the
// CLI's default cadence) unless checkpoint is false.
func (g *grid) runSharded(tr *tracer, root int, checkpoint bool) gridResult {
	dir, err := os.MkdirTemp(g.tmp, "rep")
	if err != nil {
		return gridResult{err: err}
	}
	r := gridResult{dir: dir}
	fail := func(err error) gridResult { r.err = err; return r }

	files := make([]string, g.sz.Shards)
	for i := range files {
		sp := shard.ShardParams{Index: i, Count: g.sz.Shards}
		if checkpoint {
			sp.Checkpoint = filepath.Join(dir, fmt.Sprintf("ckpt-%d.jsonl", i))
		}
		var env *shard.Envelope
		tr.in("shard.run", root, 0, func() {
			env, err = shard.Run(shard.RunSpec{Desc: g.desc, Params: g.params, Shard: sp})
		})
		if err != nil {
			return fail(err)
		}
		files[i] = filepath.Join(dir, fmt.Sprintf("shard-%d.json", i))
		tr.in("shard.envelope_write", root, 0, func() { err = shard.WriteEnvelopeFile(files[i], env) })
		if err != nil {
			return fail(err)
		}
	}
	envs := make([]*shard.Envelope, len(files))
	for i, f := range files {
		tr.in("shard.envelope_read", root, 0, func() { envs[i], err = shard.ReadEnvelopeFile(f) })
		if err != nil {
			return fail(err)
		}
	}
	var merged *shard.Envelope
	tr.in("shard.merge", root, 0, func() { merged, err = shard.Merge(envs, false) })
	if err != nil {
		return fail(err)
	}
	var (
		res    exp.Result
		params exp.Params
		buf    bytes.Buffer
	)
	tr.in("shard.reduce", root, 0, func() { res, params, err = shard.Reduce(merged) })
	if err != nil {
		return fail(err)
	}
	tr.in("experiment.marshal", root, 0, func() { err = experiment.WriteJSON(&buf, g.desc.Name, params, res) })
	r.out, r.err = buf.Bytes(), err
	return r
}

// traced wraps the same public calls in spans. The cells are built behind
// those calls, so there is no event or packet count to take.
func (g *grid) traced(tr *tracer, root int, _ bool) (any, tracedStats) {
	if !g.sharded {
		return g.runPlain(tr, root), tracedStats{}
	}
	return g.runSharded(tr, root, true), tracedStats{}
}

// gridExtras measures, once per traced child, the grid metrics that need
// runs of their own: the reduce step alone, the sweep at one worker, the
// shard path without checkpoints (against shardRunS, the traced repeat's
// shard.Run time with them) and the plain path beside the shard one.
func (g *grid) gridExtras(untracedWall, shardRunS float64) (map[string]float64, error) {
	x := map[string]float64{}
	all := exp.CellRange{Lo: 0, Hi: g.cells()}
	raw, err := g.desc.Grid.RunRange(g.params, all)
	if err != nil {
		return nil, err
	}
	t0 := now()
	if _, err := g.desc.Grid.Reduce(g.params, raw); err != nil {
		return nil, err
	}
	x["exp.grid_reduce_s"] = now().Sub(t0).Seconds()

	one := func() (float64, error) {
		t0 := now()
		r := g.repeat().(gridResult)
		wall := now().Sub(t0).Seconds()
		if r.dir != "" {
			os.RemoveAll(r.dir)
		}
		return wall, r.err
	}
	experiment.SetParallelism(1)
	var serial []float64
	for i := 0; i < 3; i++ {
		wall, err := one()
		if err != nil {
			experiment.SetParallelism(sweepWorkers)
			return nil, err
		}
		serial = append(serial, wall)
	}
	experiment.SetParallelism(sweepWorkers)
	x["sweep.parallel_efficiency"] = fast(serial) / (sweepWorkers * untracedWall)

	if !g.sharded {
		return x, nil
	}
	var plain, noCkpt []float64
	for i := 0; i < 3; i++ {
		t0 := now()
		if r := g.runPlain(nil, 0); r.err != nil {
			return nil, r.err
		}
		plain = append(plain, now().Sub(t0).Seconds())

		bare := newTracer()
		r := g.runSharded(bare, -1, false)
		os.RemoveAll(r.dir)
		if r.err != nil {
			return nil, r.err
		}
		noCkpt = append(noCkpt, bare.totalFrom(0, "shard.run"))
	}
	x["shard.overhead_frac"] = untracedWall/fast(plain) - 1
	x["shard.ckpt_overhead_s"] = shardRunS - fast(noCkpt)
	return x, nil
}

// ---------------------------------------------------------------- zoo-lossy

type zoo struct {
	sz   sizing
	seed int64
	base int64 // live heap at open
}

func openZoo(sz sizing, seed int64, _ string) (workload, error) {
	return &zoo{sz: sz, seed: seed, base: liveHeap()}, nil
}

const (
	zooBottlenecks = 3
	zooThrough     = 12 // 2 each of 4 controllers, then 4 TFRC
)

var zooControllers = []cc.Name{"reno", "vegas", "ledbat", "relentless"}

// tapStat is one bottleneck monitor's totals plus the queue's backlog
// when the clock stopped.
type tapStat struct {
	Arrivals, Departs, Drops, Queued int
}

type zooCell struct {
	Result *exp.ScenarioResult
	Taps   [zooBottlenecks]tapStat
}

func (w *zoo) cells() int { return w.sz.ZooCells }
func (w *zoo) flows() int { return zooThrough }

func (w *zoo) cellSeed(i int) int64 { return w.seed*1000 + int64(i) }

func (w *zoo) repeat() any {
	out := make([]zooCell, w.sz.ZooCells)
	for i := range out {
		out[i] = w.cell(nil, w.cellSeed(i))
	}
	return out
}

func (w *zoo) canon(res any) []byte { return mustJSON(res) }

func (w *zoo) check(res any, _ []byte) (pkts float64, failed int) {
	for _, c := range res.([]zooCell) {
		pkts += float64(c.Taps[1].Departs)
		ok := len(c.Result.TCPSeries)+len(c.Result.TFRCSeries) == zooThrough
		for _, t := range c.Taps {
			// A packet that has arrived and is still serializing is in
			// neither the queue nor the departures.
			if inFlight := t.Arrivals - t.Departs - t.Drops - t.Queued; inFlight < 0 || inFlight > 1 {
				ok = false
			}
		}
		for _, s := range append(c.Result.TCPSeries, c.Result.TFRCSeries...) {
			if sumSeries([][]float64{s}) == 0 {
				ok = false
			}
		}
		if !ok {
			failed++
		}
	}
	return pkts, failed
}

func (w *zoo) traced(tr *tracer, root int, taps bool) (any, tracedStats) {
	out := make([]zooCell, w.sz.ZooCells)
	st := tracedCells(tr, root, taps, w.base, len(out), func(h *cellTrace, i int) {
		out[i] = w.cell(h, w.cellSeed(i))
	})
	return out, st
}

// cell builds and runs one parking-lot scenario from public constructors
// only; h == nil is the untraced path.
func (w *zoo) cell(h *cellTrace, seed int64) zooCell {
	duration := w.sz.ZooDuration
	warmup := duration / 4
	var (
		pl   *netsim.ParkingLot
		b    *exp.ScenarioBuilder
		mons [zooBottlenecks]*netsim.FlowMonitor
	)
	h.span("build", func() {
		sched := sim.NewScheduler()
		sched.Pin()
		rng := sched.NewRand(seed)
		pl = netsim.NewParkingLot(sched, netsim.ParkingLotConfig{
			Bottlenecks:   zooBottlenecks,
			ThroughPairs:  zooThrough,
			CrossPairs:    2,
			BottleneckBW:  6e6,
			BottleneckDly: 0.013, // 82 ms through round trip
			Queue:         netsim.QueueDropTail,
			QueueLimit:    60, // one bandwidth-delay product
		}, sched.NewRand(seed+1))

		fs := faults.Schedule{Seed: seed, Faults: []faults.Fault{
			{At: 0, Link: "r1->r2", Kind: faults.Impair, Reorder: 0.01, ReorderDelay: 0.005, Duplicate: 0.005, Corrupt: 0.002},
			{At: 0, Link: "r1->r0", Kind: faults.Impair, Reorder: 0.01, ReorderDelay: 0.005},
			{At: 0.4 * duration, Link: "r2->r3", Kind: faults.BandwidthCollapse, Bandwidth: 3e6},
			{At: 0.6 * duration, Link: "r2->r3", Kind: faults.BandwidthCollapse, Bandwidth: 6e6},
		}}
		fs.Apply(pl.Topo)

		b = exp.NewScenarioBuilder(pl.Topo)
		// The impaired middle bottleneck is monitored first, which makes
		// it the one the result's series and drop rate come from.
		for _, s := range []int{1, 0, 2} {
			mons[s] = b.MonitorLink(pl.BottleneckName(s), 0.5, warmup)
		}
		through := func(i int) (string, string) {
			return netsim.IndexedName("ts", i), netsim.IndexedName("td", i)
		}
		for i := 0; i < 2*len(zooControllers); i++ {
			src, dst := through(i)
			b.AddCC(zooControllers[i%len(zooControllers)], cc.Config{}, src, dst,
				tcp.Config{SendJitter: 0.001, JitterSeed: seed}, rng.Uniform(0, 1))
		}
		tf := tfrcsim.DefaultConfig()
		tf.PacingJitter = 0.05
		tf.JitterSeed = seed
		for i := 2 * len(zooControllers); i < zooThrough; i++ {
			src, dst := through(i)
			b.AddTFRC(src, dst, tf, rng.Uniform(0, 1))
		}
		for s := 0; s < zooBottlenecks; s++ {
			b.AddOnOff(netsim.SubName("cs", s, 0), netsim.SubName("cd", s, 0), traffic.DefaultOnOff(),
				sched.NewRand(seed+100+int64(s)), rng.Uniform(0, 1))
			b.AddMice(netsim.SubName("cs", s, 1), netsim.SubName("cd", s, 1), traffic.MiceConfig{
				MeanInterarrival: 0.2,
				MeanSize:         20,
				Variant:          tcp.Sack,
			}, sched.NewRand(seed+200+int64(s)), 0.5)
		}
	})
	h.loop(b.Network(), func(flow int) bool {
		return flow >= 2*len(zooControllers) && flow < zooThrough
	}, duration)

	var cell zooCell
	h.span("harvest", func() {
		cell.Result = b.Run(duration)
		for s, m := range mons {
			arr, dep, drop := m.Stats()
			cell.Taps[s] = tapStat{arr, dep, drop, pl.Bottlenecks[s].Queue().Len()}
		}
	})
	h.span("release", b.Release)
	return cell
}
