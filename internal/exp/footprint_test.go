package exp

import (
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"weak"

	"tfrc/internal/cc"
	"tfrc/internal/faults"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/tcp"
	"tfrc/internal/tfrcsim"
	"tfrc/internal/traffic"
)

// The storage contract of the slabs, rings and scoreboards: a cold cell
// costs what it uses, and a warm one — same slots, same order, each
// keeping what it grew — costs what it cost the last time and not an
// allocation more. The warm cells form a matrix, one row for each part
// of the packet path, so a heap escape anywhere on that path shows as
// allocations in the row that reaches it.

// footprintDuration is how long the footprint cell runs.
const footprintDuration = 8.0

// buildFootprintCell builds one two-bottleneck parking-lot cell on
// sched: a SACK sender per zoo controller, two TFRC flows, ON/OFF and
// mice cross traffic, and reordering on the second bottleneck so the
// scoreboards see holes. It returns the builder, ready to Run, and the
// monitor on the reordering bottleneck.
func buildFootprintCell(sched *sim.Scheduler, seed int64) (*ScenarioBuilder, *netsim.FlowMonitor) {
	rng := sched.NewRand(seed)
	pl := netsim.NewParkingLot(sched, netsim.ParkingLotConfig{
		Bottlenecks:   2,
		ThroughPairs:  6,
		CrossPairs:    2,
		BottleneckBW:  6e6,
		BottleneckDly: 0.013,
		Queue:         netsim.QueueDropTail,
		QueueLimit:    60,
	}, sched.NewRand(seed+1))
	fs := faults.Schedule{Seed: seed, Faults: []faults.Fault{
		{At: 0, Link: "r1->r2", Kind: faults.Impair, Reorder: 0.01, ReorderDelay: 0.005},
	}}
	fs.Apply(pl.Topo)

	b := NewScenarioBuilder(pl.Topo)
	mon := b.MonitorLink(pl.BottleneckName(1), 0.5, footprintDuration/4)
	through := func(i int) (string, string) {
		return netsim.IndexedName("ts", i), netsim.IndexedName("td", i)
	}
	for i, name := range []cc.Name{"reno", "vegas", "ledbat", "relentless"} {
		src, dst := through(i)
		b.AddCC(name, cc.Config{}, src, dst, tcp.Config{SendJitter: 0.001, JitterSeed: seed}, rng.Uniform(0, 1))
	}
	tf := tfrcsim.DefaultConfig()
	tf.PacingJitter = 0.05
	tf.JitterSeed = seed
	for i := 4; i < 6; i++ {
		src, dst := through(i)
		b.AddTFRC(src, dst, tf, rng.Uniform(0, 1))
	}
	for s := 0; s < 2; s++ {
		b.AddOnOff(netsim.SubName("cs", s, 0), netsim.SubName("cd", s, 0), traffic.DefaultOnOff(),
			sched.NewRand(seed+100+int64(s)), rng.Uniform(0, 1))
		b.AddMice(netsim.SubName("cs", s, 1), netsim.SubName("cd", s, 1), traffic.MiceConfig{
			MeanInterarrival: 0.2,
			MeanSize:         20,
			Variant:          tcp.Sack,
		}, sched.NewRand(seed+200+int64(s)), 0.5)
	}
	return b, mon
}

// runFootprintCell builds, runs, harvests and releases one footprint
// cell on sched, with the sentinels planted in it.
func runFootprintCell(sched *sim.Scheduler, seed int64, s *sentinels) {
	s.observeSessions(sched)
	b, _ := buildFootprintCell(sched, seed)
	s.plant(b, "ts0", "r1->r2", footprintDuration)
	res := b.Run(footprintDuration)
	if len(res.TCPSeries)+len(res.TFRCSeries) != 6 {
		panic("footprint cell lost a flow")
	}
	s.harvested(res)
	s.unobserveSessions(sched)
	b.Release()
}

// allocsOf returns the allocation count and bytes of fn.
func allocsOf(fn func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// retainedCaps returns the capacity of every SACK range set and queue
// ring reachable from the scheduler's arenas, in walk order. The fields
// are private to their packages, so the walk is by reflection; maps are
// skipped (everything they index also sits in a slab) to keep the order
// deterministic.
func retainedCaps(sched *sim.Scheduler) []int {
	var caps []int
	seen := map[[2]uintptr]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			key := [2]uintptr{v.Pointer(), reflect.ValueOf(v.Type()).Pointer()}
			if v.IsNil() || seen[key] || v.Type() == reflect.TypeOf(sched) {
				return
			}
			seen[key] = true
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			if v.IsNil() {
				return
			}
			switch v.Type().Elem().String() {
			case "tcp.srange", "*netsim.Packet":
				caps = append(caps, v.Cap())
				return
			}
			all := v.Slice(0, v.Cap())
			for i := 0; i < all.Len(); i++ {
				walk(all.Index(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		}
	}
	walk(reflect.ValueOf(sched).Elem().FieldByName("arenas"))
	return caps
}

// matrixDuration is how long a dumbbell row of the matrix runs.
const matrixDuration = 10.0

// matrixCell builds a 2 Mb/s, 20 ms house dumbbell of hosts host pairs
// on a rewound sched and runs dumbbellCell on it.
func matrixCell(sched *sim.Scheduler, queue netsim.QueueKind, hosts int, fs *faults.Schedule, place func(b *ScenarioBuilder, rng *sim.Rand), s *sentinels) {
	dumbbellCell(houseDumbbell(sched, hosts, 2e6, 0.02, queue, 7), fs, place, s)
}

// dumbbellCell applies fs to d, has place put the flows and monitors on
// the builder, and runs the scenario in place and releases it. Handed
// sentinels, it plants them and harvests with Run instead, whose result
// it hands them too.
func dumbbellCell(d *netsim.Dumbbell, fs *faults.Schedule, place func(b *ScenarioBuilder, rng *sim.Rand), s *sentinels) {
	if fs != nil {
		fs.Apply(d.Topo)
	}
	b := NewScenarioBuilder(d.Topo)
	sched := b.nw.Scheduler()
	s.observeSessions(sched)
	place(b, sched.NewRand(7))
	if s != nil {
		s.plant(b, "l0", "rl->rr", matrixDuration)
		s.harvested(b.Run(matrixDuration))
		s.unobserveSessions(sched)
	} else {
		b.runInPlace(matrixDuration)
	}
	b.Release()
}

// addCBR places a constant-bit-rate source of rate bits/sec from src to
// dst, with a discarding sink.
func addCBR(b *ScenarioBuilder, src, dst string, rate float64) {
	from, to := b.topo.Lookup(src), b.topo.Lookup(dst)
	flow, port := b.nextFlow, b.port(to)
	b.nextFlow++
	traffic.NewSink(b.nw, to, port)
	traffic.NewCBR(b.nw, from, to.ID, port, flow, 1000, rate).Start(0)
}

// nopFn is a scheduler callback that does nothing.
func nopFn(any) {}

// nopRateFn is a TFRC rate observer that does nothing.
func nopRateFn(float64, float64) {}

// feedbackBlackhole loses the feedback path from t = 3 to t = 9.
var feedbackBlackhole = &faults.Schedule{Seed: 7, Faults: []faults.Fault{
	{At: 3, Link: "rr->rl", Kind: faults.Blackhole},
	{At: 9, Link: "rr->rl", Kind: faults.BlackholeOff},
}}

// tcpAndTFRC is a placement of one house SACK flow and one house TFRC
// flow.
func tcpAndTFRC(b *ScenarioBuilder, rng *sim.Rand) { placeMix(b, 1, 1, rng, 7) }

// ccCell is a row's cell of two flows of the named controller through
// random loss and a 3 s outage, so every Controller hook runs: OnAck,
// OnLoss and OnLostSegment in recovery, OnTimeout in the outage.
func ccCell(name cc.Name) func(sched *sim.Scheduler, s *sentinels) {
	fs := &faults.Schedule{Seed: 7, Faults: []faults.Fault{
		{At: 0, Link: "rl->rr", Kind: faults.Impair, Corrupt: 0.01},
		{At: 4, Link: "rl->rr", Kind: faults.LinkDown},
		{At: 7, Link: "rl->rr", Kind: faults.LinkUp},
	}}
	return func(sched *sim.Scheduler, s *sentinels) {
		matrixCell(sched, netsim.QueueDropTail, 2, fs, func(b *ScenarioBuilder, rng *sim.Rand) {
			for i := 0; i < 2; i++ {
				b.AddCC(name, cc.Config{}, netsim.IndexedName("l", i), netsim.IndexedName("r", i), houseTCP(7), rng.Uniform(0, 1))
			}
		}, s)
	}
}

// fig06Row is a row's cell of one 15 s Figure 6 grid cell. Handed
// sentinels, it builds the cell's scenario itself, to plant them.
func fig06Row(queue netsim.QueueKind, linkMbps float64, flows int) func(sched *sim.Scheduler, s *sentinels) {
	return func(sched *sim.Scheduler, s *sentinels) {
		if s == nil {
			runFig06Cell(sched, queue, linkMbps, flows, 15, 10, 1)
			return
		}
		b := buildScenario(sched, fig06Scenario(queue, linkMbps, flows, 15, 10, 1))
		s.plant(b, "l0", "rl->rr", 15)
		s.harvested(b.Run(15))
		b.Release()
	}
}

// tcpVariantsCell is a row's cell of Figure 15's TCP flavours through
// random loss: a Reno and a NewReno flow, whose fast recovery inflates
// the window on every further duplicate ACK and, for NewReno, resends a
// hole per partial ACK; a Reno flow on a 500 ms timer tick; and the
// aggressive-RTO flow that times out spuriously.
func tcpVariantsCell() func(sched *sim.Scheduler, s *sentinels) {
	fs := &faults.Schedule{Seed: 7, Faults: []faults.Fault{
		{At: 0, Link: "rl->rr", Kind: faults.Impair, Corrupt: 0.01},
	}}
	cfgs := []tcp.Config{
		{Variant: tcp.Reno},
		{Variant: tcp.NewReno},
		{Variant: tcp.Reno, Granularity: 0.5},
		{Variant: tcp.Reno, Granularity: 0.01, AggressiveRTO: true},
	}
	return func(sched *sim.Scheduler, s *sentinels) {
		matrixCell(sched, netsim.QueueDropTail, len(cfgs), fs, func(b *ScenarioBuilder, rng *sim.Rand) {
			for i, cfg := range cfgs {
				cfg.SendJitter, cfg.JitterSeed = 0.001, 7
				b.AddTCP(netsim.IndexedName("l", i), netsim.IndexedName("r", i), cfg, rng.Uniform(0, 1))
			}
		}, s)
	}
}

// tfrcCell is a row's cell of two house TFRC flows on timers of the
// given coarse tick (0: exact timers), losing packets at the bottleneck.
func tfrcCell(tick float64) func(sched *sim.Scheduler, s *sentinels) {
	return func(sched *sim.Scheduler, s *sentinels) {
		matrixCell(sched, netsim.QueueDropTail, 2, nil, func(b *ScenarioBuilder, rng *sim.Rand) {
			tf := houseTFRC(7)
			tf.CoarseTimerTick = tick
			for i := 0; i < 2; i++ {
				b.AddTFRC(netsim.IndexedName("l", i), netsim.IndexedName("r", i), tf, rng.Uniform(0, 1))
			}
		}, s)
	}
}

// faultCell is a row's cell of one SACK and one TFRC flow through the
// faults.
func faultCell(fs ...faults.Fault) func(sched *sim.Scheduler, s *sentinels) {
	schedule := &faults.Schedule{Seed: 7, Faults: fs}
	return func(sched *sim.Scheduler, s *sentinels) {
		matrixCell(sched, netsim.QueueDropTail, 2, schedule, tcpAndTFRC, s)
	}
}

// A matrixRow is one warm cell of the matrix: a small scenario that
// reaches one part of the packet path, and the allocation count and
// bytes it costs on a scheduler that has already run it twice, as
// measured (go1.24, amd64).
type matrixRow struct {
	name           string
	cell           func(sched *sim.Scheduler, s *sentinels) // builds, runs, harvests and releases one cell on a rewound sched; plants s unless nil
	mallocs, bytes uint64
}

// warmCellMatrix is the matrix. What a warm row allocates is what it
// keeps and what faults.Schedule.Apply builds for it (a closure per
// fault, a generator for impairments); nothing on the per-packet path
// allocates once warm.
var warmCellMatrix = []matrixRow{
	// DropTail: the footprint cell, a parking lot of every sender and
	// source with a tapped, reordering bottleneck. It also allocates
	// its Run result and the parking lot's name maps.
	{"droptail", func(sched *sim.Scheduler, s *sentinels) { runFootprintCell(sched, 7, s) }, 8, 1048},
	// RED: a Figure 6 grid cell, which allocates only its result's two
	// per-flow vectors.
	{"red", fig06Row(netsim.QueueRED, 8, 8), 2, 64},
	// A Figure 6 RED cell at 16 Mb/s: of the default grid's cells, only
	// those at 16 and 64 Mb/s have SACK enter fast recovery with fewer
	// than three packets in flight, clamping its pipe estimate at zero.
	{"red-16mbps", fig06Row(netsim.QueueRED, 16, 8), 2, 64},
	// RED past twice its upper threshold, where it drops every
	// arrival. A CBR source sending five times the bottleneck's rate
	// beside a SACK and a TFRC flow keeps the queue high while the
	// average climbs through the marking region. The house thresholds
	// put that region at the buffer limit, out of reach, so the row
	// sets its own well under the buffer, as manyflows does.
	{"red-overload", func(sched *sim.Scheduler, s *sentinels) {
		red := netsim.DefaultRED(60)
		red.MinThresh, red.MaxThresh = 3, 6
		d := netsim.NewDumbbell(sched, netsim.DumbbellConfig{
			Hosts: 3, BottleneckBW: 2e6, BottleneckDly: 0.02,
			Queue: netsim.QueueRED, QueueLimit: 60, RED: red,
		}, sched.NewRand(8))
		dumbbellCell(d, nil, func(b *ScenarioBuilder, rng *sim.Rand) {
			tcpAndTFRC(b, rng)
			addCBR(b, "l2", "r2", 10e6)
		}, s)
	}, 0, 0},
	{"reno", ccCell("reno"), 4, 200},
	{"vegas", ccCell("vegas"), 4, 200},
	{"ledbat", ccCell("ledbat"), 4, 200},
	{"relentless", ccCell("relentless"), 4, 200},
	{"tcp-variants", tcpVariantsCell(), 2, 136},
	{"tfrc", tfrcCell(0), 0, 0},
	// The feedback timers on the wheel.
	{"tfrc-coarse", tfrcCell(0.01), 0, 0},
	{"tapped", func(sched *sim.Scheduler, s *sentinels) {
		matrixCell(sched, netsim.QueueDropTail, 2, nil, func(b *ScenarioBuilder, rng *sim.Rand) {
			b.MonitorLink("rl->rr", 0.5, 0)
			b.MonitorLink("rr->rl", 0.5, 0)
			tcpAndTFRC(b, rng)
		}, s)
	}, 0, 0},
	// The calendar's own upkeep. Each of two bursts of 1024 no-op
	// events, due within a millisecond of t = 1 and t = 5, grows the
	// bucket array; its drain shrinks it again, on a day width fitted
	// to the burst, so the packet traffic after it finds nothing due
	// within a year, take after take, until the width is re-fitted.
	{"calendar", func(sched *sim.Scheduler, s *sentinels) {
		matrixCell(sched, netsim.QueueDropTail, 2, nil, func(b *ScenarioBuilder, rng *sim.Rand) {
			tcpAndTFRC(b, rng)
			for _, at := range []float64{1, 5} {
				for i := range 1024 {
					b.nw.Scheduler().AtArg(at+float64(i)*1e-6, nopFn, nil)
				}
			}
		}, s)
	}, 0, 0},
	{"impaired", faultCell(faults.Fault{At: 0, Link: "rl->rr", Kind: faults.Impair, Duplicate: 0.01, Corrupt: 0.01}), 2, 136},
	{"cbr", func(sched *sim.Scheduler, s *sentinels) {
		matrixCell(sched, netsim.QueueDropTail, 1, nil, func(b *ScenarioBuilder, _ *sim.Rand) { addCBR(b, "l0", "r0", 1e6) }, s)
	}, 0, 0},
	{"onoff", func(sched *sim.Scheduler, s *sentinels) {
		matrixCell(sched, netsim.QueueDropTail, 1, nil, func(b *ScenarioBuilder, rng *sim.Rand) {
			b.AddOnOff("l0", "r0", traffic.DefaultOnOff(), rng, 0)
		}, s)
	}, 0, 0},
	{"mice", func(sched *sim.Scheduler, s *sentinels) {
		matrixCell(sched, netsim.QueueDropTail, 1, nil, func(b *ScenarioBuilder, rng *sim.Rand) {
			b.AddMice("l0", "r0", traffic.MiceConfig{MeanInterarrival: 0.2, MeanSize: 20, Variant: tcp.Sack}, rng, 0)
		}, s)
	}, 0, 0},
	{"outage", faultCell(
		faults.Fault{At: 4, Link: "rl->rr", Kind: faults.LinkDown},
		faults.Fault{At: 6, Link: "rl->rr", Kind: faults.LinkUp},
	), 3, 72},
	// Feedback lost for 6 s: the TFRC sender's no-feedback timer fires
	// and backs off. Its rate observer is set, as the faultphase
	// experiment sets it.
	{"blackhole", func(sched *sim.Scheduler, s *sentinels) {
		matrixCell(sched, netsim.QueueDropTail, 2, feedbackBlackhole, func(b *ScenarioBuilder, rng *sim.Rand) {
			tcpAndTFRC(b, rng)
			b.TFRCSender(0).OnRateChange = nopRateFn
		}, s)
	}, 3, 40},
	{"reorder", faultCell(faults.Fault{At: 0, Link: "rl->rr", Kind: faults.Impair, Reorder: 0.02, ReorderDelay: 0.005}), 2, 136},
}

// TestWarmCellAllocatesNothingNew runs every row of the matrix cold,
// then warm on the same scheduler, and holds the warm cost to
// the row's measurement. The cheapest of three warm runs is judged:
// MemStats counts the whole process, and the runtime allocates on its
// own at random (type-assertion caches, GC workers), so a single run
// can read a few allocations high; one allocation and 256 B of that
// are let through.
func TestWarmCellAllocatesNothingNew(t *testing.T) {
	for _, row := range warmCellMatrix {
		t.Run(row.name, func(t *testing.T) {
			sched := sim.NewScheduler()
			warm := func() (mallocs, bytes uint64, caps []int) {
				mallocs, bytes = ^uint64(0), ^uint64(0)
				for i := 0; i < 3; i++ {
					m, b := allocsOf(func() { row.cell(rewound(sched), nil) })
					mallocs, bytes = min(mallocs, m), min(bytes, b)
				}
				return mallocs, bytes, retainedCaps(sched)
			}
			row.cell(rewound(sched), nil) // cold: everything grows to what the cell needs
			// The packet pool's free list regrows once, at its first
			// reset, so the second run is not yet the fixed point.
			row.cell(rewound(sched), nil)
			m2, b2, caps2 := warm()
			m3, b3, caps3 := warm()

			t.Logf("warm %s cell: %d allocs, %d B (pinned at %d allocs, %d B)", row.name, m3, b3, row.mallocs, row.bytes)
			if m3 != m2 || b3 != b2 {
				t.Errorf("warm cell still growing: %d allocs / %d B, then %d / %d", m2, b2, m3, b3)
			}
			if m3 > row.mallocs+1 || b3 > row.bytes+256 {
				t.Errorf("warm cell costs %d allocs / %d B, above its pinned %d / %d plus slack",
					m3, b3, row.mallocs, row.bytes)
			}
			if m3 < row.mallocs || b3 < row.bytes {
				t.Errorf("warm cell costs %d allocs / %d B, below its pinned %d / %d: pin what it measures",
					m3, b3, row.mallocs, row.bytes)
			}
			// Every row fills a queue ring; the footprint cell's grow
			// past 64.
			if len(caps2) == 0 || row.name == "droptail" && slices.Max(caps2) < 64 {
				t.Fatalf("walk found no grown ring (caps %v): the reflection path is stale", caps2)
			}
			if !slices.Equal(caps2, caps3) {
				t.Errorf("retained ring/range-set capacities moved between warm runs:\n%v\n%v", caps2, caps3)
			}
		})
	}
}

// TestReleasedCellPinsNothing runs every row of the matrix warm with
// sentinels planted through the hooks that take a caller-owned
// reference, and requires that the released cell — its scheduler kept
// alive across the collections as a sweep worker keeps it — holds none
// of them.
func TestReleasedCellPinsNothing(t *testing.T) {
	for _, row := range warmCellMatrix {
		t.Run(row.name, func(t *testing.T) {
			sched := sim.NewScheduler()
			row.cell(rewound(sched), nil)
			s := new(sentinels)
			row.cell(rewound(sched), s)
			s.check(t, sched)
		})
	}
}

// sentinels are heap objects handed into a cell through the hooks that
// take a caller-owned reference, watched through weak pointers.
type sentinels struct {
	hooks []string
	alive []func() bool
}

// A sentinel is what a hook is handed. It holds a pointer, so the
// allocator never packs it into one block with other objects, and it is
// an agent, so Node.Attach can bind it.
type sentinel struct {
	_ *int
	n int
}

func (s *sentinel) Recv(*netsim.Packet) { s.n++ }

// watch has s watch p, handed in through hook, and returns p.
func watch[T any](s *sentinels, hook string, p *T) *T {
	w := weak.Make(p)
	s.hooks = append(s.hooks, hook)
	s.alive = append(s.alive, func() bool { return w.Value() != nil })
	return p
}

// plant hands sentinels into the cell b builds: a tap on link, an agent
// and a TFRC receiver's OnLossInterval bound on host, a Scheduler.At
// closure and a fault schedule whose one fault are still pending when
// the cell ends at duration, and, when the cell has a TFRC flow, the
// first one's sender's rate observer. Nil sentinels plant nothing.
func (s *sentinels) plant(b *ScenarioBuilder, host, link string, duration float64) {
	if s == nil {
		return
	}
	at := watch(s, "Scheduler.At", new(sentinel))
	b.nw.Scheduler().At(duration+1, func() { at.n++ })
	tap := watch(s, "Link.AddTap", new(sentinel))
	b.topo.LinkByName(link).AddTap(func(netsim.TapEvent, float64, *netsim.Packet) { tap.n++ })
	n := b.topo.Lookup(host)
	n.Attach(b.port(n), watch(s, "Node.Attach", new(sentinel)))
	watch(s, "faults.Schedule.Apply", &faults.Schedule{Faults: []faults.Fault{
		{At: duration + 1, Link: link, Kind: faults.DelaySpike, Delay: 0.1},
	}}).Apply(b.topo)
	// A TFRC receiver's state machine takes a tfrcsim.Config's
	// OnLossInterval as tfrcsim.NewReceiver hands it over; this one is
	// bound on host and never sent to.
	cfg := tfrcsim.DefaultConfig()
	li := watch(s, "tfrcsim.Config.OnLossInterval", new(sentinel))
	cfg.OnLossInterval = func(float64) { li.n++ }
	tfrcsim.NewReceiver(b.nw, n, b.port(n), b.nextFlow, cfg)
	if len(b.tfrc) > 0 {
		rc := watch(s, "Sender.OnRateChange", new(sentinel))
		b.TFRCSender(0).OnRateChange = func(float64, float64) { rc.n++ }
	}
}

// observeSessions sets a sentinel as sched's traffic.ObserveSessions
// callback. A row sets it before it builds anything, so a mice
// generator that copied the setting would still hold it once
// unobserveSessions has cleared it and the cell is released. In a row
// without mice generators nothing reads the setting, and the check is
// empty.
func (s *sentinels) observeSessions(sched *sim.Scheduler) {
	if s == nil {
		return
	}
	obs := watch(s, "traffic.ObserveSessions", new(sentinel))
	traffic.ObserveSessions(sched, func(traffic.SessionEvent) { obs.n++ })
}

// unobserveSessions clears sched's traffic.ObserveSessions setting, as
// its owner does when done watching.
func (s *sentinels) unobserveSessions(sched *sim.Scheduler) {
	if s != nil {
		traffic.ObserveSessions(sched, nil)
	}
}

// harvested watches the result the cell harvested with Run.
func (s *sentinels) harvested(res *ScenarioResult) {
	if s != nil {
		watch(s, "ScenarioBuilder.Run's result", res)
	}
}

// check fails t for every sentinel the released cell on sched still
// holds.
func (s *sentinels) check(t *testing.T, sched *sim.Scheduler) {
	t.Helper()
	if len(s.alive) < 5 {
		t.Fatalf("%d sentinels planted, want 5: the row plants none", len(s.alive))
	}
	runtime.GC()
	runtime.GC()
	for i, alive := range s.alive {
		if alive() {
			t.Errorf("the released cell still holds what it was handed through %s", s.hooks[i])
		}
	}
	runtime.KeepAlive(sched)
}

// What the footprint cell allocates on a fresh scheduler in a fresh
// process (after another test has interned the topology's names it reads
// 82 allocations and 9.9 KB lower, which is why the test measures it in
// a child process), go1.24, amd64:
//
//	PR 14, eager scoreboards and limit-sized rings   1.95 MB
//	demand-sized storage                             549 allocs, 310 592 B
//	finished senders back in the arena               355 allocs, 245 208 B
//	before range sets were carved                    362 allocs, 257 528 B
//	range sets carved, generators in a slab          299 allocs, 259 696 B
//	before each table was sized once                 299 allocs, 258 480 B
//	each table sized once                            232 allocs, 236 280 B
//	first chunks and rings in slots                  183 allocs, 240 376 B
//
// Demand-sized storage held a sender for every session its 64 port slots
// had seen and gave every sink a range set at its first packet; since
// then a finished sender is back in the arena before the next session
// starts, a sink that sees no hole owns no set, the per-node tables,
// queue rings and range sets are cut from a few chunks per network, the
// scheduler's generators are values in its slab, and a monitor's three
// counter columns share one block. Then each table a fresh scheduler,
// slab or preset topology needs was made once, at a size already known,
// instead of doubled from nil: the scheduler's slot table, free list,
// rebuild scratch and arena table, every slab's free list, the network's
// node table, the topology's name maps and the route BFS queue; a link's
// taps are carved, and a mice generator's slot table is inline. Last, what a cold cell always needs went into the slot it
// already pays for: a slab holds its first chunk and its chunk table, a
// loss history the paper's eight-interval ring, and the builder's flow,
// sender and monitor tables are carved from the exp arena. Its bytes
// rise by the first chunks of slabs the cell never fills. What is left
// is mostly the topology's names, slab chunks past the first, carver
// chunks and the generators' math/rand sources. The budgets are the
// measured cell plus 15 %.
const (
	coldCellMallocs = 211
	coldCellBudget  = 277000
)

// coldCellChild is set in the environment of the child process in which
// TestColdCellStaysUnderByteBudget measures the cold cell.
const coldCellChild = "TFRC_COLD_CELL_CHILD"

func TestColdCellStaysUnderByteBudget(t *testing.T) {
	if os.Getenv(coldCellChild) != "" {
		sched := sim.NewScheduler()
		mallocs, bytes := allocsOf(func() { runFootprintCell(sched, 7, nil) })
		fmt.Printf("cold cell: %d allocs, %d B\n", mallocs, bytes)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestColdCellStaysUnderByteBudget$", "-test.count=1")
	cmd.Env = append(os.Environ(), coldCellChild+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	_, line, _ := strings.Cut(string(out), "cold cell: ")
	var mallocs, bytes uint64
	if _, err := fmt.Sscanf(line, "%d allocs, %d B", &mallocs, &bytes); err != nil {
		t.Fatalf("reading the child's measurement: %v\n%s", err, out)
	}
	t.Logf("cold cell, own process: %d allocs, %d B (budget: %d allocs, %d B)",
		mallocs, bytes, coldCellMallocs, coldCellBudget)
	if bytes > coldCellBudget {
		t.Errorf("cold cell allocated %d B, over the %d B budget", bytes, coldCellBudget)
	}
	if mallocs > coldCellMallocs {
		t.Errorf("cold cell made %d allocations, over the budget of %d", mallocs, coldCellMallocs)
	}
}
