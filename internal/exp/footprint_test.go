package exp

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"tfrc/internal/cc"
	"tfrc/internal/faults"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/tcp"
	"tfrc/internal/tfrcsim"
	"tfrc/internal/traffic"
)

// The storage contract of the slabs, rings and scoreboards, pinned on the
// kind of cell the robustness grids are made of: a cold cell costs what
// it uses, and a warm one — same slots, same order, each keeping what it
// grew — costs what its results cost and not a byte more.

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

// footprintCell builds, runs, harvests and releases one footprint cell on
// sched. It returns the allocation count and bytes of build + run +
// harvest.
func footprintCell(sched *sim.Scheduler, seed int64) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	b, _ := buildFootprintCell(sched, seed)
	res := b.Run(footprintDuration)

	runtime.ReadMemStats(&after)
	if len(res.TCPSeries)+len(res.TFRCSeries) != 6 {
		panic("footprint cell lost a flow")
	}
	b.Release()
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

// Allocations of the footprint cell on a scheduler that has already run
// it, as measured at the parent commit (PR 14: eager scoreboards, carved
// rings; go1.24, amd64). What a warm cell still allocates is its harvested
// result, the topology's name maps and the fault schedule's closures.
const (
	parentWarmMallocs = 33
	parentWarmBytes   = 1912
)

func TestWarmCellAllocatesNothingNew(t *testing.T) {
	sched := sim.NewScheduler()
	sched.Pin()
	// The cheapest of three runs: MemStats counts the whole process, and
	// the runtime allocates on its own at random (type-assertion caches,
	// GC workers), so a single run can read a few allocations high.
	warm := func() (mallocs, bytes uint64, caps []int) {
		mallocs, bytes = ^uint64(0), ^uint64(0)
		for i := 0; i < 3; i++ {
			sched.Reset()
			m, b := footprintCell(sched, 7)
			mallocs, bytes = min(mallocs, m), min(bytes, b)
		}
		return mallocs, bytes, retainedCaps(sched)
	}
	footprintCell(sched, 7) // cold: everything grows to what the cell needs
	sched.Reset()
	// The packet pool's free list regrows once, at its first reset (at
	// the parent commit too), so the second run is not yet the fixed point.
	footprintCell(sched, 7)
	m2, b2, caps2 := warm()
	m3, b3, caps3 := warm()

	t.Logf("warm cell: %d allocs, %d B (pinned at PR 14's %d allocs, %d B)", m3, b3, parentWarmMallocs, parentWarmBytes)
	if m3 != m2 || b3 != b2 {
		t.Errorf("warm cell still growing: %d allocs / %d B, then %d / %d", m2, b2, m3, b3)
	}
	if m3 > parentWarmMallocs || b3 > parentWarmBytes {
		t.Errorf("warm cell costs %d allocs / %d B, above the parent commit's %d / %d",
			m3, b3, parentWarmMallocs, parentWarmBytes)
	}
	if len(caps2) == 0 || slices.Max(caps2) < 64 {
		t.Fatalf("walk found no grown ring (caps %v): the reflection path is stale", caps2)
	}
	if !slices.Equal(caps2, caps3) {
		t.Errorf("retained ring/range-set capacities moved between warm runs:\n%v\n%v", caps2, caps3)
	}
}

// What the footprint cell allocates on a fresh scheduler in a fresh
// process (`go test -run TestColdCell`; after another test has interned
// the topology's names it reads 82 allocations and 9.9 KB lower on both
// sides, which is why CI also runs it in a process of its own), go1.24,
// amd64:
//
//	PR 14, eager scoreboards and limit-sized rings   1.95 MB
//	demand-sized storage                             549 allocs, 310 592 B
//	finished senders back in the arena               355 allocs, 245 208 B
//	before range sets were carved                    362 allocs, 257 528 B
//	range sets carved, generators in a slab          299 allocs, 259 696 B
//	parent commit                                    299 allocs, 258 480 B
//	this commit: each table sized once               232 allocs, 236 280 B
//
// Demand-sized storage held a sender for every session its 64 port slots
// had seen and gave every sink a range set at its first packet; since
// then a finished sender is back in the arena before the next session
// starts, a sink that sees no hole owns no set, the per-node tables,
// queue rings and range sets are cut from a few chunks per network, the
// scheduler's generators are values in its slab, and a monitor's three
// counter columns share one block. This commit makes each table a fresh
// scheduler, slab or preset topology needs once, at a size already
// known, instead of doubling it from nil: the scheduler's slot table,
// free list, rebuild scratch and arena table, every slab's chunk table
// and free list, the network's node table, the topology's name maps and
// the route BFS queue; a link's taps are carved, and a mice generator's
// slot table is inline. What is left is mostly slab and carver chunks
// and the generators' math/rand sources. The budgets are the measured
// cell plus 15 %; the parent commit is over the allocation budget.
const (
	parentColdMallocs = 299
	parentColdBytes   = 258480
	coldCellMallocs   = 267
	coldCellBudget    = 272000
)

func TestColdCellStaysUnderByteBudget(t *testing.T) {
	sched := sim.NewScheduler()
	sched.Pin()
	mallocs, bytes := footprintCell(sched, 7)
	t.Logf("cold cell: %d allocs, %d B (parent commit: %d allocs, %d B; budget: %d allocs, %d B)",
		mallocs, bytes, parentColdMallocs, parentColdBytes, coldCellMallocs, coldCellBudget)
	if bytes > coldCellBudget {
		t.Errorf("cold cell allocated %d B, over the %d B budget", bytes, coldCellBudget)
	}
	if mallocs > coldCellMallocs {
		t.Errorf("cold cell made %d allocations, over the budget of %d", mallocs, coldCellMallocs)
	}
}

// TestGridCellAllocatesOnlyItsResult pins what a warm Figure 6 grid cell
// costs on its worker: the two per-flow vectors its Fig06Cell keeps, and
// nothing for the series and queue trace the cell reads and throws away.
// The cell has the benchmark grid's shape (8 flows, 15 s, about 300
// queue samples); the cheapest of three warm runs is judged, as in
// TestWarmCellAllocatesNothingNew.
func TestGridCellAllocatesOnlyItsResult(t *testing.T) {
	c := newCell()
	run := func() Fig06Cell { return runFig06Cell(c, netsim.QueueRED, 8, 8, 15, 10, 1) }
	run() // cold: the arena grows to what the cell needs
	run()
	mallocs, bytes := ^uint64(0), ^uint64(0)
	var cell Fig06Cell
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cell = run()
		runtime.ReadMemStats(&after)
		mallocs, bytes = min(mallocs, after.Mallocs-before.Mallocs), min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	// What the cell keeps, plus one allocation and 256 B the runtime may
	// make on its own.
	ownMallocs, ownBytes := uint64(2), uint64(8*(cap(cell.PerFlowTCP)+cap(cell.PerFlowTFRC)))
	t.Logf("warm grid cell: %d allocs, %d B (its result: %d allocs, %d B)", mallocs, bytes, ownMallocs, ownBytes)
	if mallocs > ownMallocs+1 || bytes > ownBytes+256 {
		t.Errorf("warm grid cell costs %d allocs / %d B, more than its result's %d / %d plus slack",
			mallocs, bytes, ownMallocs, ownBytes)
	}
}
