package exp

import (
	"testing"

	"tfrc/internal/netsim"
)

// TestFig06MultiSeedCI exercises the multi-seed confidence-interval
// mode: means must aggregate across seeds with nonzero CI half-widths,
// deterministically at any parallelism.
func TestFig06MultiSeedCI(t *testing.T) {
	pr := Fig06Params{
		LinkMbps:    []float64{4},
		TotalFlows:  []int{4},
		Queues:      []netsim.QueueKind{netsim.QueueRED},
		Duration:    20,
		MeasureTail: 10,
		Seed:        1,
		Seeds:       3,
	}
	a := runWith[*Fig06Result](t, "fig6", &pr, 4)
	b := runWith[*Fig06Result](t, "fig6", &pr, 1)
	if len(a.Cells) != 1 {
		t.Fatalf("got %d cells, want 1 (seeds aggregate within a cell)", len(a.Cells))
	}
	c := a.Cells[0]
	if c.Seeds != 3 {
		t.Fatalf("cell.Seeds = %d, want 3", c.Seeds)
	}
	if c.NormTCPCI <= 0 || c.NormTFRCCI <= 0 {
		t.Fatalf("multi-seed CIs not populated: %+v", c)
	}
	if c.NormTCP <= 0 || c.NormTFRC <= 0 {
		t.Fatalf("multi-seed means not populated: %+v", c)
	}
	d := b.Cells[0]
	if c.NormTCP != d.NormTCP || c.NormTCPCI != d.NormTCPCI ||
		c.NormTFRC != d.NormTFRC || c.NormTFRCCI != d.NormTFRCCI ||
		c.Utilization != d.Utilization || c.DropRate != d.DropRate {
		t.Fatalf("multi-seed result depends on parallelism:\n%+v\n%+v", c, d)
	}
	// Single-seed behavior is unchanged: no CI columns, Seeds zero.
	pr.Seeds = 1
	r := runWith[*Fig06Result](t, "fig6", &pr, 1)
	if got := r.Cells[0]; got.Seeds != 0 || got.NormTCPCI != 0 {
		t.Fatalf("Seeds=1 must leave CI fields zero: %+v", got)
	}
}
