// Package bench is the simulator's performance measurement harness: it
// runs a fixed, deterministic workload, snapshots throughput and
// allocation metrics into a machine-readable report, and compares
// reports so CI can fail on regressions. cmd/tfrcsim exposes it via
// -bench / -bench-out / -bench-compare.
package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"tfrc/internal/exp"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
)

// Schema identifies the report layout for forward compatibility.
// Schema 2 added the sweep-engine metrics (cell_setup_allocs,
// cells_per_sec); schema 3 added the per-decade flow-scaling metrics
// (flows axis). Older baselines simply leave the newer gates inactive.
const Schema = 3

// ScenarioMetrics measures the end-to-end simulator on the standard
// 8-flow RED dumbbell (the BenchmarkSimulatorPacketsPerSecond workload).
type ScenarioMetrics struct {
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// PktsPerSec is delivered bottleneck data packets (a deterministic
	// count) per wall-clock second — the headline throughput metric.
	PktsPerSec float64 `json:"pkts_per_sec"`
}

// SchedulerMetrics measures the raw event queue on a standing-population
// churn loop (the BenchmarkSchedulerEventsPerSecond workload).
type SchedulerMetrics struct {
	Ops          int     `json:"ops"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// SweepMetrics measures the sweep engine end to end: what one grid cell
// costs to set up, and how many cells per second a worker pool sustains
// (the BenchmarkSweepCellsPerSecond workload).
type SweepMetrics struct {
	// CellSetupAllocs is the allocations of the median cell of a short
	// scenario run sequentially on a warm worker arena. The steady-state event
	// loop allocates nothing, so this is construction plus result
	// harvest — the cost the pooled agent arenas exist to eliminate.
	CellSetupAllocs float64 `json:"cell_setup_allocs"`
	// Cells and Workers describe the grid throughput workload; cells/sec
	// is wall-clock grid throughput at that worker count.
	Cells       int     `json:"cells"`
	Workers     int     `json:"workers"`
	CellsPerSec float64 `json:"cells_per_sec"`
}

// FlowDecadeMetrics measures one rung of the manyflows scaling ladder:
// a single decade run end to end, wall-clocked (the
// BenchmarkManyFlowsPacketsPerSecond workload).
type FlowDecadeMetrics struct {
	Flows int `json:"flows"`
	// PktsPerSec is bottleneck-delivered packets (a deterministic count)
	// per wall-clock second for this decade.
	PktsPerSec float64 `json:"pkts_per_sec"`
	// AllocsPerOp is heap allocations for the whole decade run —
	// construction of n flows plus harvest; the steady-state loop
	// allocates only amortized growth.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// HeapPeakBytes proxies peak RSS: runtime.ReadMemStats HeapInuse
	// immediately after the run, while the decade's working set is still
	// reachable. Informational (GC timing jitters it); not gated.
	HeapPeakBytes float64 `json:"heap_peak_bytes"`
	WallSeconds   float64 `json:"wall_seconds"`
}

// Report is one BENCH_<n>.json snapshot.
type Report struct {
	Schema    int              `json:"schema"`
	Name      string           `json:"name"`
	GoVersion string           `json:"go_version"`
	GOOS      string           `json:"goos"`
	GOARCH    string           `json:"goarch"`
	Scenario  ScenarioMetrics  `json:"scenario"`
	Scheduler SchedulerMetrics `json:"scheduler"`
	Sweep     SweepMetrics     `json:"sweep"`
	// Flows is the per-decade scaling curve (schema ≥ 3).
	Flows []FlowDecadeMetrics `json:"flows,omitempty"`
}

func benchScenario(iters int) ScenarioMetrics {
	run := func(seed int64) float64 {
		r := exp.RunScenario(exp.Scenario{
			NTCP: 4, NTFRC: 4,
			BottleneckBW: 8e6,
			Queue:        netsim.QueueRED,
			Duration:     10,
			Warmup:       2,
			Seed:         seed,
		})
		var bytes float64
		for _, s := range append(r.TCPSeries, r.TFRCSeries...) {
			for _, v := range s {
				bytes += v
			}
		}
		return bytes / 1000 // delivered data packets at the bottleneck
	}
	run(0) // warm the shared slab pools so the snapshot reflects steady state

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var pkts float64
	for i := 0; i < iters; i++ {
		pkts += run(int64(i))
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	n := float64(iters)
	return ScenarioMetrics{
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / n,
		PktsPerSec:  pkts / elapsed.Seconds(),
	}
}

func benchSweep() SweepMetrics {
	short := func(seed int64) {
		exp.RunScenario(exp.Scenario{
			NTCP: 2, NTFRC: 2,
			BottleneckBW: 4e6,
			Queue:        netsim.QueueRED,
			Duration:     3,
			Warmup:       1,
			Seed:         seed,
		})
	}
	// Per-cell setup allocations, sequential on a warm worker arena: the
	// median cell, because a GC that empties the pooled arena mid-loop
	// makes one cell rebuild from cold (~200 allocations), and averaged
	// in that reads as 4 more on every cell — 9.0 against a 5.04 baseline
	// was measured on unchanged code.
	prev := exp.SetParallelism(1)
	short(0) // warm the pooled cell
	const setupIters = 50
	counts := make([]uint64, setupIters)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	for i := range counts {
		before := ms.Mallocs
		short(int64(i))
		runtime.ReadMemStats(&ms)
		counts[i] = ms.Mallocs - before
	}
	slices.Sort(counts)
	m := SweepMetrics{
		CellSetupAllocs: float64(counts[setupIters/2]),
	}

	// End-to-end grid throughput on the worker-pinned runner. The worker
	// count is capped at 4 so snapshots from common CI hosts stay
	// comparable; Compare only gates cells/sec between matching counts.
	m.Workers = runtime.GOMAXPROCS(0)
	if m.Workers > 4 {
		m.Workers = 4
	}
	exp.SetParallelism(m.Workers)
	grid := exp.Fig06Params{
		LinkMbps:    []float64{2, 8},
		TotalFlows:  []int{4, 8},
		Queues:      []netsim.QueueKind{netsim.QueueDropTail, netsim.QueueRED},
		Duration:    15,
		MeasureTail: 10,
		Seed:        1,
		Seeds:       8,
	}
	m.Cells = len(grid.LinkMbps) * len(grid.TotalFlows) * len(grid.Queues) * grid.Seeds
	exp.RunFig06(grid) // warm every worker's arena
	start := time.Now()
	exp.RunFig06(grid)
	m.CellsPerSec = float64(m.Cells) / time.Since(start).Seconds()
	exp.SetParallelism(prev)
	return m
}

func benchScheduler(ops int) SchedulerMetrics {
	s := sim.NewScheduler()
	r := rand.New(rand.NewSource(1))
	delays := make([]float64, 8192)
	for i := range delays {
		delays[i] = r.Float64()
	}
	fn := func(any) {}
	for i := 0; i < 4096; i++ {
		s.AfterArg(delays[i%len(delays)], fn, nil)
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		s.AfterArg(delays[i%len(delays)], fn, nil)
		s.Step()
	}
	elapsed := time.Since(start)
	return SchedulerMetrics{Ops: ops, EventsPerSec: float64(ops) / elapsed.Seconds()}
}

// benchManyFlows walks the manyflows decade ladder once, wall-clocking
// each rung. Decades run coldest-first and sequentially, so each rung's
// heap reading reflects only its own working set.
func benchManyFlows(decades []int) []FlowDecadeMetrics {
	pr := exp.DefaultManyFlows()
	// The experiment's long settling window exists for fairness numbers;
	// the bench only measures simulator throughput, so a shorter window
	// keeps the whole ladder to about a minute of wall clock. The window
	// still extends past the start transient — the drop-storm seconds
	// while the population slow-starts are the most expensive per packet,
	// and a window that is mostly transient understates the simulator.
	pr.Duration, pr.Warmup = 5, 2
	out := make([]FlowDecadeMetrics, 0, len(decades))
	for _, n := range decades {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		cell := exp.RunManyFlowsDecade(n, pr)
		wall := time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		out = append(out, FlowDecadeMetrics{
			Flows:         n,
			PktsPerSec:    float64(cell.DeliveredPkts) / wall,
			AllocsPerOp:   float64(after.Mallocs - before.Mallocs),
			HeapPeakBytes: float64(after.HeapInuse),
			WallSeconds:   wall,
		})
	}
	return out
}

// Run executes the measurement suite and returns the report. name labels
// the snapshot (e.g. "PR3" or "ci").
func Run(name string) *Report {
	return &Report{
		Schema:    Schema,
		Name:      name,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Scenario:  benchScenario(20),
		Scheduler: benchScheduler(2_000_000),
		Sweep:     benchSweep(),
		Flows:     benchManyFlows([]int{1_000, 10_000, 100_000}),
	}
}

// Write stores the report as indented JSON at path.
func (r *Report) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a report from path.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &r, nil
}

// Compare checks the current report against a committed baseline and
// returns a non-nil error describing every gate that failed. tolerance
// is the allowed fractional regression (e.g. 0.15 for 15%).
//
// Allocations are deterministic and compared directly. Packet throughput
// depends on machine speed, so the baseline's pkts/sec is first rescaled
// by the ratio of scheduler events/sec (a pure-CPU proxy measured in the
// same process on both machines); the gate then catches regressions in
// simulator work per packet rather than differences in host hardware.
func Compare(cur, base *Report, tolerance float64) error {
	var fails []string
	if base.Scenario.AllocsPerOp > 0 {
		// One alloc of absolute slack: the count is single digits per op
		// since the agent arenas landed, so ±1 of profiler or pool jitter
		// would otherwise exceed any reasonable percentage.
		limit := base.Scenario.AllocsPerOp*(1+tolerance) + 1
		if cur.Scenario.AllocsPerOp > limit {
			fails = append(fails, fmt.Sprintf(
				"allocs/op %.0f exceeds baseline %.0f by more than %.0f%%+1",
				cur.Scenario.AllocsPerOp, base.Scenario.AllocsPerOp, tolerance*100))
		}
	}
	if base.Scenario.PktsPerSec > 0 && base.Scheduler.EventsPerSec > 0 && cur.Scheduler.EventsPerSec > 0 {
		scale := cur.Scheduler.EventsPerSec / base.Scheduler.EventsPerSec
		expected := base.Scenario.PktsPerSec * scale
		floor := expected * (1 - tolerance)
		if cur.Scenario.PktsPerSec < floor {
			fails = append(fails, fmt.Sprintf(
				"pkts/sec %.0f below machine-calibrated baseline %.0f (raw baseline %.0f × cpu scale %.2f) by more than %.0f%%",
				cur.Scenario.PktsPerSec, expected, base.Scenario.PktsPerSec, scale, tolerance*100))
		}
	}
	if base.Sweep.CellSetupAllocs > 0 {
		// Allocation counts are deterministic but tiny (single digits per
		// cell), so a one-alloc absolute slack keeps ±1 jitter from
		// tripping a percentage gate while an un-pooled agent (tens of
		// allocations) still fails loudly.
		limit := base.Sweep.CellSetupAllocs*(1+tolerance) + 1
		if cur.Sweep.CellSetupAllocs > limit {
			fails = append(fails, fmt.Sprintf(
				"cell_setup_allocs %.1f exceeds baseline %.1f by more than %.0f%%+1",
				cur.Sweep.CellSetupAllocs, base.Sweep.CellSetupAllocs, tolerance*100))
		}
	}
	if base.Sweep.CellsPerSec > 0 && cur.Sweep.Workers == base.Sweep.Workers &&
		base.Scheduler.EventsPerSec > 0 && cur.Scheduler.EventsPerSec > 0 {
		// Grid throughput depends on worker count as well as single-core
		// speed, so the gate applies only between snapshots taken at the
		// same parallelism, calibrated like pkts/sec.
		scale := cur.Scheduler.EventsPerSec / base.Scheduler.EventsPerSec
		expected := base.Sweep.CellsPerSec * scale
		if cur.Sweep.CellsPerSec < expected*(1-tolerance) {
			fails = append(fails, fmt.Sprintf(
				"cells/sec %.1f below machine-calibrated baseline %.1f (raw baseline %.1f × cpu scale %.2f, %d workers) by more than %.0f%%",
				cur.Sweep.CellsPerSec, expected, base.Sweep.CellsPerSec, scale, cur.Sweep.Workers, tolerance*100))
		}
	}
	// Flow-scaling curve: gate each decade present in both reports.
	// Throughput is machine-calibrated like pkts/sec; allocations are
	// deterministic but scale with the flow count, so the slack is
	// relative plus a small absolute term for pool warm-up jitter.
	if len(base.Flows) > 0 && len(cur.Flows) > 0 &&
		base.Scheduler.EventsPerSec > 0 && cur.Scheduler.EventsPerSec > 0 {
		scale := cur.Scheduler.EventsPerSec / base.Scheduler.EventsPerSec
		baseByFlows := make(map[int]FlowDecadeMetrics, len(base.Flows))
		for _, d := range base.Flows {
			baseByFlows[d.Flows] = d
		}
		for _, d := range cur.Flows {
			bd, ok := baseByFlows[d.Flows]
			if !ok {
				continue
			}
			if bd.PktsPerSec > 0 {
				expected := bd.PktsPerSec * scale
				if d.PktsPerSec < expected*(1-tolerance) {
					fails = append(fails, fmt.Sprintf(
						"flows=%d pkts/sec %.0f below machine-calibrated baseline %.0f (raw baseline %.0f × cpu scale %.2f) by more than %.0f%%",
						d.Flows, d.PktsPerSec, expected, bd.PktsPerSec, scale, tolerance*100))
				}
			}
			if bd.AllocsPerOp > 0 {
				limit := bd.AllocsPerOp*(1+tolerance) + 100
				if d.AllocsPerOp > limit {
					fails = append(fails, fmt.Sprintf(
						"flows=%d allocs/op %.0f exceeds baseline %.0f by more than %.0f%%+100",
						d.Flows, d.AllocsPerOp, bd.AllocsPerOp, tolerance*100))
				}
			}
		}
	}
	if len(fails) == 0 {
		return nil
	}
	msg := "bench regression gate failed:"
	for _, f := range fails {
		msg += "\n  - " + f
	}
	return fmt.Errorf("%s", msg)
}
