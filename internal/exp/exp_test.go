package exp

import (
	"strings"
	"testing"

	"tfrc/internal/netsim"
	"tfrc/internal/stats"
	"tfrc/internal/tcp"
)

func TestScenarioBasics(t *testing.T) {
	sc := Scenario{
		NTCP: 2, NTFRC: 2,
		BottleneckBW: 4e6,
		Queue:        netsim.QueueDropTail,
		TCPVariant:   tcp.Sack,
		Duration:     40, Warmup: 10,
		Seed: 1,
	}
	r := RunScenario(sc)
	if len(r.TCPSeries) != 2 || len(r.TFRCSeries) != 2 {
		t.Fatalf("series: %d TCP, %d TFRC", len(r.TCPSeries), len(r.TFRCSeries))
	}
	if r.Utilization < 0.9 {
		t.Fatalf("utilization %v < 0.9", r.Utilization)
	}
	if r.FairShare != 4e6/8/4 {
		t.Fatalf("fair share = %v", r.FairShare)
	}
	// All four flows should move bytes.
	for i, s := range append(append([][]float64{}, r.TCPSeries...), r.TFRCSeries...) {
		if stats.Mean(s) == 0 {
			t.Fatalf("flow %d starved completely", i)
		}
	}
}

func TestScenarioDeterminism(t *testing.T) {
	run := func() float64 {
		r := RunScenario(Scenario{
			NTCP: 1, NTFRC: 1, BottleneckBW: 2e6,
			Queue: netsim.QueueRED, TCPVariant: tcp.Sack,
			Duration: 20, Warmup: 5, Seed: 42,
		})
		return r.NormalizedMeanTCP()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different results: %v vs %v", a, b)
	}
}

// TestFig02Shape holds what the "fig2" claims row cannot: how the
// estimate and the rate move between the settled windows. Each step's
// transient depends on how fast the sender's own falling or rising rate
// fills the history, which the paper plots but does not bound; so these
// bounds have no derivation and stay here.
func TestFig02Shape(t *testing.T) {
	r := fig02Run(t)
	if len(r.Points) < 100 {
		t.Fatalf("only %d samples", len(r.Points))
	}
	// One field of the samples in a window.
	in := func(lo, hi float64, f func(Fig02Point) float64) []float64 {
		var xs []float64
		for _, p := range r.Points {
			if p.Time >= lo && p.Time < hi {
				xs = append(xs, f(p))
			}
		}
		return xs
	}
	mean := func(lo, hi float64, f func(Fig02Point) float64) float64 { return stats.Mean(in(lo, hi, f)) }
	est := func(p Fig02Point) float64 { return p.EstLossRate }
	p1 := mean(4, 6, est)   // 0.01, held by the claims row
	p2 := mean(7.5, 9, est) // should have risen toward 0.1
	p3 := mean(14, 16, est) // should have fallen well below p2
	if p2 < 3*p1 {
		t.Errorf("estimate did not react to 10× loss increase: %v vs %v", p2, p1)
	}
	if p3 > p2/2 {
		t.Errorf("estimate did not recover: %v vs %v", p3, p2)
	}
	// Transmission rate moves inversely.
	rate := func(p Fig02Point) float64 { return p.TxRate }
	if r1, r2 := mean(4, 6, rate), mean(7.5, 9, rate); r2 > r1/2 {
		t.Errorf("tx rate did not drop under 10× loss: %v → %v", r1, r2)
	}
	if r2, r3 := mean(7.5, 9, rate), mean(14, 16, rate); r3 < 1.5*r2 {
		t.Errorf("tx rate did not recover: %v → %v", r2, r3)
	}
}

// TestFig02StableBeforeChange: before t=6 the loss is perfectly
// periodic, so the ALI estimate must be rock-stable. The paper calls it
// "a completely stable measure" without a number; the 0.05 bound on its
// CoV has no derivation.
func TestFig02StableBeforeChange(t *testing.T) {
	var vals []float64
	for _, p := range fig02Run(t).Points {
		if p.Time >= 4 && p.Time < 6 {
			vals = append(vals, p.EstLossRate)
		}
	}
	if len(vals) < 10 {
		t.Fatalf("too few samples: %d", len(vals))
	}
	if cov := stats.CoV(vals); cov > 0.05 {
		t.Fatalf("estimate CoV %v under periodic loss, want < 0.05", cov)
	}
}

func TestFig06CellFairness(t *testing.T) {
	cell := fig06Cell(t, netsim.QueueDropTail, 4, 8, 60, 30, 1)
	if cell.NormTCP < 0.3 || cell.NormTCP > 2.0 {
		t.Fatalf("normalized TCP throughput %v outside [0.3, 2]", cell.NormTCP)
	}
	if cell.Utilization < 0.9 {
		t.Fatalf("utilization %v < 0.9 (paper: > 90%%)", cell.Utilization)
	}
	red := fig06Cell(t, netsim.QueueRED, 4, 8, 60, 30, 1)
	if red.NormTCP < 0.3 || red.NormTCP > 2.0 {
		t.Fatalf("RED normalized TCP throughput %v outside [0.3, 2]", red.NormTCP)
	}
}

// TestFig06CellsBuildsNoKeyList pins the shard runner's per-cell cost:
// it asks for the grid size once per cell, so counting must not flatten
// the axes into a list.
func TestFig06CellsBuildsNoKeyList(t *testing.T) {
	pr := PaperFig06()
	d, _ := Lookup("fig6")
	var p Params = &pr
	if n := testing.AllocsPerRun(10, func() { d.Grid.Cells(p) }); n != 0 {
		t.Fatalf("fig6's Grid.Cells allocates %v times per call, want 0", n)
	}
}

func TestFig07PerFlowSpread(t *testing.T) {
	pr := Fig07Params{TotalFlows: []int{16}, Duration: 40, MeasureTail: 20, Seed: 1}
	c := runWith[*Fig07Result](t, "fig7", &pr, 1).Cells[0]
	if len(c.PerFlowTCP) != 8 || len(c.PerFlowTFRC) != 8 {
		t.Fatalf("per-flow counts: %d/%d", len(c.PerFlowTCP), len(c.PerFlowTFRC))
	}
	// Paper Figure 7: TCP flows show higher variance than TFRC flows.
	if stats.StdDev(c.PerFlowTFRC) > stats.StdDev(c.PerFlowTCP)*1.5 {
		t.Fatalf("TFRC per-flow spread %v ≫ TCP %v", stats.StdDev(c.PerFlowTFRC), stats.StdDev(c.PerFlowTCP))
	}
}

// TestFig09Shape holds the bounds on Figure 9's equivalence ratios that
// have no derivation: that every ratio exceeds 0.2, and that the
// TCP-vs-TFRC ratio does not fall by more than 0.05 from the shortest
// timescale to the longest. The ratios at neighbouring timescales are
// not ordered in general (min/max of sums is not bounded by the mean of
// per-bin min/max), and no model puts a floor under them. The claims
// rows "fig9" and "fig10" hold the protocol comparisons on this run.
func TestFig09Shape(t *testing.T) {
	r := fig09Run(t)
	for i, ts := range r.Timescales {
		for name, c := range map[string]MeanCI{
			"TCPvTCP": r.TCPvTCP[i], "TFRCvTFRC": r.TFRCvTFRC[i], "TCPvTFRC": r.TCPvTFRC[i],
		} {
			if c.Mean <= 0.2 || c.Mean > 1 {
				t.Errorf("%s at τ=%v: equivalence %v outside (0.2, 1]", name, ts, c.Mean)
			}
		}
	}
	first, last := r.TCPvTFRC[0].Mean, r.TCPvTFRC[len(r.Timescales)-1].Mean
	if last < first-0.05 {
		t.Errorf("TCPvTFRC equivalence fell with timescale: %v → %v", first, last)
	}
}

// TestFig11LossRisesWithSources holds what the "fig11" claims row
// cannot: below the link's capacity nothing forces a loss, so no model
// bounds the 60-source cell, and that loss rises with the sources and
// that the equivalence under heavy load (Figure 12) does not fall with
// the timescale by more than 0.05 have no derivation.
func TestFig11LossRisesWithSources(t *testing.T) {
	r := fig11Run(t)
	if lo, hi := r.Rows[0].LossRate.Mean, r.Rows[1].LossRate.Mean; hi <= lo {
		t.Errorf("loss did not rise with sources: %v → %v", lo, hi)
	}
	if row := r.Rows[1]; row.EqTCPvTFRC[1].Mean < row.EqTCPvTFRC[0].Mean-0.05 {
		t.Errorf("equivalence fell with timescale under load: %v → %v",
			row.EqTCPvTFRC[0].Mean, row.EqTCPvTFRC[1].Mean)
	}
}

// TestFig14QueueDynamics holds Figure 14's utilization floor, which has
// no derivation: the flows start over the first 20 s of a 25 s run, so
// the utilization is set by start-up, which no steady-state model
// bounds (the paper reads 99 %). The "fig14" claims row holds the drop
// rates.
func TestFig14QueueDynamics(t *testing.T) {
	r := fig14Run(t)
	for _, side := range []Fig14Side{r.TCP, r.TFRC} {
		if side.Utilization < 0.85 {
			t.Errorf("%s utilization %v < 0.85 (paper: 99%%)", side.Protocol, side.Utilization)
		}
		if len(side.Queue) == 0 {
			t.Errorf("%s: no queue samples", side.Protocol)
		}
	}
}

// TestFig15TFRCSmoothComparable holds Figure 15's "comparable
// throughput" as a factor of 3 either way, which has no derivation: the
// two flows see different loss event rates on the path, so Eq. (1) does
// not tie their means together. The "fig15" claims row holds the CoVs.
func TestFig15TFRCSmoothComparable(t *testing.T) {
	r := fig15Run(t)
	if r.MeanTFRC <= 0 || r.MeanTCP <= 0 {
		t.Fatal("starved flow")
	}
	if ratio := r.MeanTFRC / r.MeanTCP; ratio < 0.3 || ratio > 3 {
		t.Errorf("TFRC/TCP mean ratio %v outside [0.3, 3]", ratio)
	}
}

// TestFig18PredictorShape holds Figure 18's plausibility bounds, which
// have no derivation: every average error in (0, 0.2], and at least 50
// loss intervals scored. The "fig18" claims row holds the history sizes
// against each other.
func TestFig18PredictorShape(t *testing.T) {
	r := fig18Run(t)
	for _, p := range r.Points {
		if p.AvgError <= 0 || p.AvgError > 0.2 {
			t.Errorf("point %+v has implausible error", p)
		}
	}
	if r.Intervals < 50 {
		t.Errorf("only %d intervals evaluated", r.Intervals)
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	var b strings.Builder
	f2 := Fig02Params{T1: 2, T2: 3, Duration: 5}
	f5 := Fig05Params{PLoss: []float64{0.01, 0.1}}
	f19 := Fig19Params{DropEveryBefore: 50, DropEveryAfter: 2, SwitchTime: 2, Duration: 4}
	runWith[*Fig02Result](t, "fig2", &f2, 1).Table(&b)
	runWith[*Fig05Result](t, "fig5", &f5, 1).Table(&b)
	runWith[*Fig19Result](t, "fig19", &f19, 1).Table(&b)
	if len(b.String()) < 200 {
		t.Fatal("printers emitted almost nothing")
	}
	if !strings.Contains(b.String(), "Figure 5") {
		t.Fatal("missing figure header")
	}
}
