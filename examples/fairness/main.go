// Fairness: a scaled-down run of the paper's Figure 6 — n SACK TCP and
// n TFRC flows sharing a bottleneck across a grid of link speeds and
// queue disciplines, reporting TCP's throughput normalized so that 1.0
// is a perfectly fair share. The grid is a user-defined experiment:
// experiment.Define registers it as parameters → independent cells →
// reduce, each cell one scenario.Spec dumbbell, and experiment.Run
// validates the parameters and runs the cells.
//
//	go run ./examples/fairness
package main

import (
	"fmt"
	"io"
	"os"

	"tfrc/experiment"
	"tfrc/scenario"
)

// fairnessParams is the grid: every queue × link speed × flow count.
type fairnessParams struct {
	Queues           []scenario.QueueKind
	LinkMbps         []float64
	Flows            []int // total flows, half TCP and half TFRC
	Duration, Warmup float64
}

func (p *fairnessParams) cells() int { return len(p.Queues) * len(p.LinkMbps) * len(p.Flows) }

// spec is cell i's dumbbell, flow counts varying fastest.
func (p *fairnessParams) spec(i int) scenario.Spec {
	nl, nf := len(p.LinkMbps), len(p.Flows)
	return scenario.Spec{
		NTCP:         p.Flows[i%nf] / 2,
		NTFRC:        p.Flows[i%nf] / 2,
		BottleneckBW: p.LinkMbps[i/nf%nl] * 1e6,
		Queue:        p.Queues[i/(nl*nf)],
		TCPVariant:   scenario.TCPSack,
		Duration:     p.Duration,
		Warmup:       p.Warmup,
		BinWidth:     0.5,
		Seed:         1,
	}
}

func (p *fairnessParams) Validate() error {
	for i := range p.cells() {
		sp := p.spec(i)
		if err := sp.Validate(); err != nil {
			return fmt.Errorf("fairness: cell %d: %w", i, err)
		}
	}
	return nil
}

// fairnessCell is what one dumbbell run contributes to the table.
type fairnessCell struct{ NormTCP, NormTFRC, Utilization, DropRate float64 }

type fairnessResult struct {
	Params fairnessParams
	Cells  []fairnessCell
}

func (r *fairnessResult) Table(w io.Writer) {
	fmt.Fprintln(w, "queue     link     flows   normTCP  normTFRC  util   drops")
	for i, c := range r.Cells {
		sp := r.Params.spec(i)
		fmt.Fprintf(w, "%-8s  %3.0f Mb/s  %4d   %6.2f   %6.2f   %4.2f   %.4f\n",
			sp.Queue, sp.BottleneckBW/1e6, sp.NTCP+sp.NTFRC, c.NormTCP, c.NormTFRC, c.Utilization, c.DropRate)
	}
}

func init() {
	experiment.Define(experiment.Spec[fairnessParams, fairnessCell, *fairnessResult]{
		Name:        "fairness",
		Description: "normalized TCP and TFRC throughput on a small Figure 6 grid",
		Default: func() fairnessParams {
			return fairnessParams{
				Queues:   []scenario.QueueKind{scenario.QueueDropTail, scenario.QueueRED},
				LinkMbps: []float64{2, 8},
				Flows:    []int{2, 8, 16},
				Duration: 40,
				Warmup:   20,
			}
		},
		Cells: (*fairnessParams).cells,
		Cell: func(_ *experiment.Cell, p *fairnessParams, i int) fairnessCell {
			res, err := scenario.Run(p.spec(i))
			if err != nil {
				panic(err) // Validate checked every cell's spec
			}
			return fairnessCell{res.NormalizedMeanTCP(), res.NormalizedMeanTFRC(), res.Utilization, res.DropRate}
		},
		Reduce: func(p *fairnessParams, cells []fairnessCell) *fairnessResult { return &fairnessResult{*p, cells} },
	})
}

func main() {
	d, err := experiment.Get("fairness")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := experiment.Run(d, d.Params())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("n TCP + n TFRC flows on one bottleneck; normTCP = 1.0 means fair")
	fmt.Println()
	res.Table(os.Stdout)
	fmt.Println()
	fmt.Println("(paper Figure 6: values near 1.0 across the grid; TCP dips only")
	fmt.Println(" where its fair-share window is very small)")
}
