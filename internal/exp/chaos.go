package exp

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"strings"

	"tfrc/internal/faults"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
)

// ChaosParams is the randomized fault soak: Cells independent dumbbell
// runs, each under its own randomly generated (but fully seeded) fault
// schedule — outages, feedback blackholes, delay spikes, bandwidth
// collapses, and packet impairments in arbitrary overlap. Every cell
// checks hard invariants only: rates stay finite and above the protocol
// floor, utilization stays physical, and delivery resumes once the last
// fault heals. Results are byte-identical at any worker count; a failed
// cell reproduces alone from its seed. It earns its place as CI's
// race-checked chaos smoke run and as the soak testbed for conservation
// under random fault schedules.
type ChaosParams struct {
	Cells    int
	LinkMbps float64
	// Episodes is the number of paired fault episodes per cell.
	Episodes int
	// Kinds restricts which episode kinds the generator draws
	// (LinkDown, Blackhole, DelaySpike, BandwidthCollapse, Impair);
	// empty means all of them.
	Kinds    []faults.Kind
	Duration float64
	Seed     int64
}

// The flow mix of every chaos cell, on a RED house bottleneck: one SACK
// flow against two TFRC flows, whose rates the invariants watch.
const chaosTCP, chaosTFRC = 1, 2

// DefaultChaos is the laptop-scale soak.
func DefaultChaos() ChaosParams {
	return ChaosParams{
		Cells:    8,
		LinkMbps: 8,
		Episodes: 5,
		Duration: 60,
		Seed:     1,
	}
}

// episodeKinds are the kinds the chaos generator can draw; each episode
// is a fault plus its matching heal.
var episodeKinds = []faults.Kind{
	faults.LinkDown, faults.Blackhole, faults.DelaySpike,
	faults.BandwidthCollapse, faults.Impair,
}

// Validate implements Params.
func (p *ChaosParams) Validate() error {
	var v checks
	atLeast(&v, "Cells", 1, p.Cells)
	positive(&v, "LinkMbps", p.LinkMbps)
	nonNegative(&v, "Episodes", p.Episodes)
	for _, k := range p.Kinds {
		if !slices.Contains(episodeKinds, k) {
			v.fail("Kinds: %q is not an episode kind (episodes pair their own heals)", k)
		}
	}
	check(&v, p.Duration >= 20, "Duration must be at least 20 s (episodes need a settled head and a healed tail), got %v", p.Duration)
	binCount(&v, p.Duration, houseBin)
	return v.err
}

// chaos is one cell per soak run; each cell's seed derives from its
// absolute index.
func init() {
	Define(Spec[ChaosParams, ChaosCell, *ChaosResult]{
		Name:        "chaos",
		Description: "seeded randomized fault soak with hard invariants",
		Default:     DefaultChaos,
		Cells:       func(p *ChaosParams) int { return p.Cells },
		Cell: func(sched *sim.Scheduler, p *ChaosParams, idx int) ChaosCell {
			return runChaosCell(sched, *p, chaosFloor, p.Seed+int64(idx)*9973)
		},
		Reduce: chaosReduce,
	})
}

// chaosSchedule draws one cell's fault program. Every episode is a
// fault and its heal; all randomness comes from rng, so the schedule is
// a pure function of the cell seed.
func chaosSchedule(rng *sim.Rand, pr ChaosParams, seed int64, bw, dly float64) faults.Schedule {
	kinds := pr.Kinds
	if len(kinds) == 0 {
		kinds = episodeKinds
	}
	sc := faults.Schedule{Seed: seed}
	// Leave a settled head and enough healed tail that the delivery-
	// resumes invariant has clean air to measure.
	lo, hi := 5.0, pr.Duration-10
	for e := 0; e < pr.Episodes; e++ {
		start := rng.Uniform(lo, hi-3)
		length := rng.Uniform(0.2, 3)
		if start+length > hi {
			length = hi - start
		}
		end := start + length
		switch kinds[rng.Intn(len(kinds))] {
		case faults.LinkDown:
			sc.Faults = append(sc.Faults,
				faults.Fault{At: start, Link: "rl->rr", Kind: faults.LinkDown, Drain: rng.Float64() < 0.5},
				faults.Fault{At: end, Link: "rl->rr", Kind: faults.LinkUp})
		case faults.Blackhole:
			// Reverse direction: a pure feedback blackout.
			sc.Faults = append(sc.Faults,
				faults.Fault{At: start, Link: "rr->rl", Kind: faults.Blackhole},
				faults.Fault{At: end, Link: "rr->rl", Kind: faults.BlackholeOff})
		case faults.DelaySpike:
			sc.Faults = append(sc.Faults,
				faults.Fault{At: start, Link: "rl->rr", Kind: faults.DelaySpike, Delay: dly * rng.Uniform(2, 10)},
				faults.Fault{At: end, Link: "rl->rr", Kind: faults.DelaySpike, Delay: dly})
		case faults.BandwidthCollapse:
			sc.Faults = append(sc.Faults,
				faults.Fault{At: start, Link: "rl->rr", Kind: faults.BandwidthCollapse, Bandwidth: bw * rng.Uniform(0.05, 0.5)},
				faults.Fault{At: end, Link: "rl->rr", Kind: faults.BandwidthCollapse, Bandwidth: bw})
		case faults.Impair:
			sc.Faults = append(sc.Faults,
				faults.Fault{At: start, Link: "rl->rr", Kind: faults.Impair,
					Reorder: rng.Uniform(0, 0.2), ReorderDelay: rng.Uniform(0.001, 0.02),
					Duplicate: rng.Uniform(0, 0.1), Corrupt: rng.Uniform(0, 0.05)},
				faults.Fault{At: end, Link: "rl->rr", Kind: faults.Impair})
		}
	}
	return sc
}

// scheduleHash fingerprints a schedule (FNV-1a over its JSON), so two
// runs can assert they exercised identical fault programs.
func scheduleHash(sc *faults.Schedule) string {
	j, err := json.Marshal(sc)
	if err != nil {
		return "unhashable"
	}
	h := fnv.New64a()
	h.Write(j)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ChaosCell is one soak cell's summary. The zero value (Ran false)
// marks a cell skipped by an interrupted run.
type ChaosCell struct {
	Ran      bool
	Seed     int64
	Hash     string // schedule fingerprint
	Faults   int
	MinRate  float64 // lowest allowed TFRC rate seen, bytes/sec
	MaxRate  float64
	Util     float64 // delivered fraction of nominal capacity
	TailKB   float64 // KB delivered in the final 5 s, after every heal
	NoFbCuts int64
	// Violations lists every broken invariant; empty means the cell
	// passed.
	Violations []string
}

// ChaosResult aggregates the soak.
type ChaosResult struct {
	Params     ChaosParams
	Floor      float64 // protocol floor, bytes/sec
	Cells      []ChaosCell
	Skipped    int // cells skipped by interruption
	Violations int
	OK         bool // no violations among the cells that ran
}

// chaosFloor is the protocol floor every cell checks against: one
// packet per 64 s, in bytes/sec.
const chaosFloor = 1000.0 / 64

// chaosReduce tallies violations and skips across the cells.
func chaosReduce(pr *ChaosParams, cells []ChaosCell) *ChaosResult {
	out := &ChaosResult{Params: *pr, Floor: chaosFloor, Cells: cells}
	out.OK = true
	for i := range out.Cells {
		switch cell := &out.Cells[i]; {
		case !cell.Ran:
			out.Skipped++
		case len(cell.Violations) > 0:
			out.Violations += len(cell.Violations)
			out.OK = false
		}
	}
	return out
}

func runChaosCell(sched *sim.Scheduler, pr ChaosParams, floor float64, seed int64) ChaosCell {
	rng := sched.NewRand(seed)
	bw := pr.LinkMbps * 1e6
	d := houseDumbbell(sched, chaosTCP+chaosTFRC, bw, houseDelay, netsim.QueueRED, seed)

	sc := chaosSchedule(rng, pr, seed, bw, houseDelay)
	sc.Apply(d.Topo)

	cell := ChaosCell{Ran: true, Seed: seed, Hash: scheduleHash(&sc), Faults: len(sc.Faults)}

	b := NewScenarioBuilder(d.Topo)
	b.MonitorLink("rl->rr", houseBin, 0)

	placeMix(b, chaosTCP, chaosTFRC, rng, seed)
	minRate, maxRate := math.Inf(1), 0.0
	var samples int
	observe := func(_, rate float64) {
		samples++
		minRate = math.Min(minRate, rate)
		maxRate = math.Max(maxRate, rate)
	}
	for i := 0; i < chaosTFRC; i++ {
		b.TFRCSender(i).OnRateChange = observe
	}
	res := b.Run(pr.Duration)
	for i := 0; i < chaosTFRC; i++ {
		cell.NoFbCuts += b.TFRCSender(i).NoFbCuts
	}
	b.Release()

	total := sumSeries(res.TFRCSeries, res.Bins)
	for i, v := range sumSeries(res.TCPSeries, res.Bins) {
		total[i] += v
	}
	var delivered, tail float64
	tailFrom := int((pr.Duration - 5) / houseBin)
	for i, v := range total {
		delivered += v
		if i >= tailFrom {
			tail += v
		}
	}
	cell.Util = delivered / (bw / 8 * pr.Duration)
	cell.TailKB = tail / 1000

	// Hard invariants. Violation strings are deterministic: they feed
	// the table output and the byte-identity contract.
	bad := func(format string, args ...any) {
		cell.Violations = append(cell.Violations, fmt.Sprintf(format, args...))
	}
	if samples == 0 {
		bad("no rate samples from %d TFRC senders", chaosTFRC)
	} else {
		cell.MinRate, cell.MaxRate = minRate, maxRate
		if math.IsNaN(minRate) || math.IsNaN(maxRate) || maxRate > 1e12 {
			bad("rate not finite: min %g max %g", minRate, maxRate)
		}
		if minRate < floor*(1-1e-9) {
			bad("rate below protocol floor: %.3g < %.3g", minRate, floor)
		}
	}
	if cell.Util < 0 || cell.Util > 1+1e-6 {
		bad("utilization out of range: %.4f", cell.Util)
	}
	if cell.TailKB <= 0 {
		bad("no delivery in the final 5 s, after every fault healed")
	}
	return cell
}

// Table implements Result: one row per cell plus the verdict.
func (r *ChaosResult) Table(w io.Writer) {
	fmt.Fprintf(w, "# Chaos soak: %d cells × %d episodes, %.0f Mb/s bottleneck, %d TCP + %d TFRC, %.0f s\n",
		r.Params.Cells, r.Params.Episodes, r.Params.LinkMbps,
		chaosTCP, chaosTFRC, r.Params.Duration)
	fmt.Fprintln(w, "# cell\tseed\tschedule\tfaults\tminRate\tutil\ttailKB\tnoFbCuts\tverdict")
	for i, c := range r.Cells {
		if !c.Ran {
			fmt.Fprintf(w, "%d\t-\t-\t-\t-\t-\t-\t-\tskipped\n", i)
			continue
		}
		verdict := "ok"
		if len(c.Violations) > 0 {
			verdict = strings.Join(c.Violations, "; ")
		}
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%.1f\t%.3f\t%.0f\t%d\t%s\n",
			i, c.Seed, c.Hash, c.Faults, c.MinRate, c.Util, c.TailKB, c.NoFbCuts, verdict)
	}
	fmt.Fprintf(w, "# %d violations, %d skipped, ok=%v\n", r.Violations, r.Skipped, r.OK)
}
