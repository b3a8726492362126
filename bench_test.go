package tfrc_test

// One benchmark per figure of the paper's evaluation, plus ablation
// benches for the design choices of the paper's §3. Each figure
// bench runs a scaled-down instance of the corresponding experiment and
// reports the figure's headline metric via b.ReportMetric, so
// `go test -bench . -benchmem` regenerates the whole evaluation at
// laptop scale. cmd/tfrcsim runs the same experiments at paper scale.
// Every figure bench runs its experiment as cmd/tfrcsim does: by name,
// through exp.RunExperiment, on validated parameters. Speed is gated by
// `go run ./benchmark`; the one throughput bench here is the target of
// CI's profile step.

import (
	"math"
	"testing"

	"tfrc/internal/core"
	"tfrc/internal/exp"
	"tfrc/internal/netsim"
	"tfrc/internal/stats"
)

// runWith runs the registered experiment name on p under RunOptions
// {Workers: workers}.
func runWith[R exp.Result](b *testing.B, name string, p exp.Params, workers int) R {
	b.Helper()
	d, ok := exp.Lookup(name)
	if !ok {
		b.Fatalf("%s not registered", name)
	}
	r, err := exp.RunExperiment(d, p, exp.RunOptions{Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	return r.(R)
}

func BenchmarkFig02LossIntervalDynamics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pr := exp.DefaultFig02()
		r := runWith[*exp.Fig02Result](b, "fig2", &pr, 1)
		if len(r.Points) == 0 {
			b.Fatal("no samples")
		}
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(last.EstLossRate, "final-p")
	}
}

func BenchmarkFig03OscillationNoAdjustment(b *testing.B) {
	benchFig03(b, exp.DefaultFig03())
}

func BenchmarkFig04OscillationWithAdjustment(b *testing.B) {
	benchFig03(b, exp.DefaultFig04())
}

func benchFig03(b *testing.B, pr exp.Fig03Params) {
	pr.Duration, pr.Warmup = 60, 20
	pr.BufferSizes = []int{8, 32}
	for i := 0; i < b.N; i++ {
		r := runWith[*exp.Fig03Result](b, "fig3", &pr, 1)
		var cov float64
		for _, c := range r.Curves {
			cov += c.CoV
		}
		b.ReportMetric(cov/float64(len(r.Curves)), "rate-cov")
	}
}

func BenchmarkFig05LossEventFraction(b *testing.B) {
	pr := exp.DefaultFig05()
	for i := 0; i < b.N; i++ {
		r := runWith[*exp.Fig05Result](b, "fig5", &pr, 1)
		// Report the worst-case deviation of p_event below p_loss for
		// the 1× flow (paper: at most ≈ 10% at moderate loss).
		worst := 0.0
		for _, row := range r.Rows {
			if d := (row.PLoss - row.PEvent[0]) / row.PLoss; d > worst {
				worst = d
			}
		}
		b.ReportMetric(worst, "max-deviation")
	}
}

func BenchmarkFig06FairnessGrid(b *testing.B) {
	// One representative cell per queue type.
	pr := exp.Fig06Params{
		LinkMbps:    []float64{8},
		TotalFlows:  []int{8},
		Queues:      []netsim.QueueKind{netsim.QueueDropTail, netsim.QueueRED},
		Duration:    45,
		MeasureTail: 30,
		Seed:        1,
	}
	for i := 0; i < b.N; i++ {
		cells := runWith[*exp.Fig06Result](b, "fig6", &pr, 1).Cells
		b.ReportMetric(cells[0].NormTCP, "normTCP-droptail")
		b.ReportMetric(cells[1].NormTCP, "normTCP-red")
	}
}

func BenchmarkFig07PerFlowDistribution(b *testing.B) {
	pr := exp.Fig07Params{TotalFlows: []int{16}, Duration: 40, MeasureTail: 20, Seed: 1}
	for i := 0; i < b.N; i++ {
		cells := runWith[*exp.Fig07Result](b, "fig7", &pr, 1).Cells
		b.ReportMetric(stats.StdDev(cells[0].PerFlowTCP), "tcp-spread")
		b.ReportMetric(stats.StdDev(cells[0].PerFlowTFRC), "tfrc-spread")
	}
}

func BenchmarkFig08ThroughputTraces(b *testing.B) {
	pr := exp.Fig08GridParams{Queues: []netsim.QueueKind{netsim.QueueRED}, Flows: 32, Seed: 1}
	for i := 0; i < b.N; i++ {
		r := runWith[*exp.Fig08GridResult](b, "fig8", &pr, 1).Results[0]
		b.ReportMetric(r.CoVTCP, "cov-tcp")
		b.ReportMetric(r.CoVTFRC, "cov-tfrc")
	}
}

func BenchmarkFig09EquivalenceRatio(b *testing.B) {
	pr := exp.DefaultFig09()
	pr.Runs, pr.FlowsEach, pr.Duration, pr.Warmup = 2, 8, 40, 15
	for i := 0; i < b.N; i++ {
		r := runWith[*exp.Fig09Result](b, "fig9", &pr, 1)
		b.ReportMetric(r.TCPvTFRC[2].Mean, "eq-tcp-tfrc@1s")
	}
}

func BenchmarkFig10CoVTimescales(b *testing.B) {
	pr := exp.DefaultFig09()
	pr.Runs, pr.FlowsEach, pr.Duration, pr.Warmup = 2, 8, 40, 15
	for i := 0; i < b.N; i++ {
		r := runWith[*exp.Fig09Result](b, "fig9", &pr, 1)
		b.ReportMetric(r.CoVTCP[2].Mean, "cov-tcp@1s")
		b.ReportMetric(r.CoVTFRC[2].Mean, "cov-tfrc@1s")
	}
}

func BenchmarkFig11OnOffLossRate(b *testing.B) {
	pr := exp.Fig11Params{
		Sources: []int{100}, Duration: 60, Warmup: 20,
		Timescales: []float64{1}, Runs: 1, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		r := runWith[*exp.Fig11Result](b, "fig11", &pr, 1)
		b.ReportMetric(r.Rows[0].LossRate.Mean, "loss-rate")
	}
}

func BenchmarkFig12EquivalenceUnderLoad(b *testing.B) {
	pr := exp.Fig11Params{
		Sources: []int{100}, Duration: 60, Warmup: 20,
		Timescales: []float64{10}, Runs: 1, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		r := runWith[*exp.Fig11Result](b, "fig11", &pr, 1)
		b.ReportMetric(r.Rows[0].EqTCPvTFRC[0].Mean, "eq@10s")
	}
}

func BenchmarkFig13CoVUnderLoad(b *testing.B) {
	pr := exp.Fig11Params{
		Sources: []int{100}, Duration: 60, Warmup: 20,
		Timescales: []float64{1}, Runs: 1, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		r := runWith[*exp.Fig11Result](b, "fig11", &pr, 1)
		b.ReportMetric(r.Rows[0].CoVTFRC[0].Mean, "cov-tfrc")
		b.ReportMetric(r.Rows[0].CoVTCP[0].Mean, "cov-tcp")
	}
}

func BenchmarkFig14QueueDynamics(b *testing.B) {
	pr := exp.DefaultFig14()
	pr.Flows, pr.Duration = 20, 20
	for i := 0; i < b.N; i++ {
		r := runWith[*exp.Fig14Result](b, "fig14", &pr, 1)
		b.ReportMetric(r.TCP.DropRate, "drop-tcp")
		b.ReportMetric(r.TFRC.DropRate, "drop-tfrc")
	}
}

func BenchmarkFig15InternetTrace(b *testing.B) {
	pr := exp.Fig15Params{Duration: 60, Seed: 1}
	for i := 0; i < b.N; i++ {
		r := runWith[*exp.Fig15Result](b, "fig15", &pr, 1)
		b.ReportMetric(r.MeanTFRC/r.MeanTCP, "tfrc/tcp")
	}
}

func BenchmarkFig16PathEquivalence(b *testing.B) {
	pr := exp.Fig16Params{Timescales: []float64{1, 10}, Duration: 60, Seed: 1}
	for i := 0; i < b.N; i++ {
		r := runWith[*exp.Fig16Result](b, "fig16", &pr, 1)
		// Paper: Linux path equivalent, Solaris path poorer.
		var linux, solaris float64
		for _, row := range r.Rows {
			switch row.Path {
			case "UMASS (Linux)":
				linux = row.Eq[1]
			case "UMASS (Solaris)":
				solaris = row.Eq[1]
			}
		}
		b.ReportMetric(linux, "eq-linux")
		b.ReportMetric(solaris, "eq-solaris")
	}
}

func BenchmarkFig17PathCoV(b *testing.B) {
	pr := exp.Fig16Params{Timescales: []float64{1}, Duration: 60, Seed: 1}
	for i := 0; i < b.N; i++ {
		r := runWith[*exp.Fig16Result](b, "fig16", &pr, 1)
		var tcpCov, tfrcCov float64
		for _, row := range r.Rows {
			if row.Path == "UMASS (Solaris)" {
				tcpCov, tfrcCov = row.CoVTCP[0], row.CoVTFRC[0]
			}
		}
		b.ReportMetric(tcpCov, "cov-solaris-tcp")
		b.ReportMetric(tfrcCov, "cov-solaris-tfrc")
	}
}

func BenchmarkFig18LossPredictor(b *testing.B) {
	pr := exp.DefaultFig18()
	pr.Duration = 60
	for i := 0; i < b.N; i++ {
		r := runWith[*exp.Fig18Result](b, "fig18", &pr, 1)
		for _, p := range r.Points {
			if p.HistorySize == 8 && !p.ConstantWeights {
				b.ReportMetric(p.AvgError, "err-n8-decreasing")
			}
		}
	}
}

func BenchmarkFig19IncreaseRate(b *testing.B) {
	pr := exp.DefaultFig19()
	for i := 0; i < b.N; i++ {
		r := runWith[*exp.Fig19Result](b, "fig19", &pr, 1)
		b.ReportMetric(r.MaxIncreasePerRTT, "pkts-per-rtt")
	}
}

func BenchmarkFig20PersistentCongestion(b *testing.B) {
	pr := exp.DefaultFig20()
	for i := 0; i < b.N; i++ {
		r := runWith[*exp.Fig19Result](b, "fig20", &pr, 1)
		b.ReportMetric(float64(r.HalvedAfterRTTs), "rtts-to-halve")
	}
}

func BenchmarkFig21HalvingSweep(b *testing.B) {
	pr := exp.Fig21Params{DropRates: []float64{0.01, 0.1}}
	for i := 0; i < b.N; i++ {
		r := runWith[*exp.Fig21Result](b, "fig21", &pr, 1)
		var mean float64
		for _, row := range r.Rows {
			mean += float64(row.RTTs)
		}
		b.ReportMetric(mean/float64(len(r.Rows)), "rtts-to-halve")
	}
}

func BenchmarkAppendixA1IncreaseBound(b *testing.B) {
	// Evaluate the ΔT formula across the A range; report the bound.
	for i := 0; i < b.N; i++ {
		worst := 0.0
		for a := 1.0; a < 1e6; a *= 1.1 {
			d := 1.2 * (math.Sqrt(a+(1.0/6)*1.2*math.Sqrt(a)) - math.Sqrt(a))
			if d > worst {
				worst = d
			}
		}
		b.ReportMetric(worst, "max-deltaT")
	}
}

// --- Ablation benches: the design choices of §3 ---

// BenchmarkAblationDiscounting measures how much faster the sender
// recovers after congestion ends with history discounting on vs off.
func BenchmarkAblationDiscounting(b *testing.B) {
	run := func(discount bool) float64 {
		h := core.NewLossHistory(core.LossHistoryConfig{N: 8, Discounting: discount})
		for k := 0; k < 8; k++ {
			h.OnLossEvent(100)
		}
		open, rate := 0.0, 1.2*math.Sqrt(100)
		for rtt := 0; rtt < 500; rtt++ {
			open += rate
			h.SetOpen(open)
			rate = 1.2 * math.Sqrt(1/h.Report()) // one report per RTT
		}
		return rate
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(true), "rate-after-500rtt-disc")
		b.ReportMetric(run(false), "rate-after-500rtt-plain")
	}
}

// BenchmarkAblationS0 compares the max(ŝ, ŝ_new) rule against always or
// never including the open interval: the metric is estimate stability
// under periodic loss (never-include is stable but slow; always-include
// is noisy; the paper's rule is both stable and responsive).
func BenchmarkAblationS0(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := core.NewLossHistory(core.LossHistoryConfig{N: 8})
		for k := 0; k < 10; k++ {
			h.OnLossEvent(100)
		}
		var maxRule, always []float64
		for s0 := 1.0; s0 <= 99; s0++ {
			h.SetOpen(s0)
			maxRule = append(maxRule, h.AvgInterval())
			// "always include" recomputed naively over the eight closed
			// intervals the history holds, all 100:
			sum, w := s0*1.0, 1.0
			ws := core.Weights(8)
			for j := 0; j+1 < 8; j++ {
				sum += 100 * ws[j+1]
				w += ws[j+1]
			}
			always = append(always, sum/w)
		}
		b.ReportMetric(stats.CoV(maxRule), "cov-max-rule")
		b.ReportMetric(stats.CoV(always), "cov-always-include")
	}
}

// BenchmarkAblationEquation compares the full PFTK response function
// with the simple √p form at moderate and high loss.
func BenchmarkAblationEquation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(core.PFTK(1000, 0.1, 0.4, 0.02)/core.Simple(1000, 0.1, 0.4, 0.02), "full/simple@p2%")
		b.ReportMetric(core.PFTK(1000, 0.1, 0.4, 0.15)/core.Simple(1000, 0.1, 0.4, 0.15), "full/simple@p15%")
	}
}

// --- Scaling ---

// BenchmarkManyFlowsPacketsPerSecond measures the flow-scaling machinery
// — chunked agent slabs, struct-of-arrays monitors, the coarse timer
// wheel, dense port tables, and the calendar event queue — at the 10k
// rung of the manyflows ladder. The metric is bottleneck-delivered
// packets per wall-clock second; `go run ./benchmark` reports the same
// rung off-contract as manyflows10k (-flows runs the 1k and 100k ones),
// and CI captures cpu/mem profiles of this benchmark as artifacts.
func BenchmarkManyFlowsPacketsPerSecond(b *testing.B) {
	pr := exp.DefaultManyFlows()
	// Short window, as in manyflows10k: throughput needs no settling.
	pr.Duration, pr.Warmup = 5, 2
	var pkts float64
	for i := 0; i < b.N; i++ {
		cell := exp.RunManyFlowsDecade(10_000, pr)
		if cell.DeliveredPkts == 0 {
			b.Fatal("dead simulation")
		}
		pkts += float64(cell.DeliveredPkts)
	}
	b.ReportMetric(pkts/b.Elapsed().Seconds(), "pkts/sec")
}
