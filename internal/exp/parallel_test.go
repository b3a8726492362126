package exp

import (
	"bytes"
	"testing"

	"tfrc/internal/netsim"
)

// withParallelism runs f at the given worker count, restoring the
// previous setting afterwards.
func withParallelism(n int, f func()) {
	prev := SetParallelism(n)
	defer SetParallelism(prev)
	f()
}

// TestParallelFig06ByteIdentical requires the parallel runner to
// reproduce the sequential Figure 6 grid byte for byte: cells are pure,
// so only the merge order could differ, and the runner pins it.
func TestParallelFig06ByteIdentical(t *testing.T) {
	pr := Fig06Params{
		LinkMbps:    []float64{2, 4},
		TotalFlows:  []int{2, 4},
		Queues:      []netsim.QueueKind{netsim.QueueDropTail, netsim.QueueRED},
		Duration:    20,
		MeasureTail: 10,
		Seed:        3,
	}
	var seq, par bytes.Buffer
	withParallelism(1, func() { RunFig06(pr).Table(&seq) })
	withParallelism(8, func() { RunFig06(pr).Table(&par) })
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("parallel Fig06 output differs from sequential:\n--- sequential\n%s--- parallel\n%s",
			seq.String(), par.String())
	}
}

// TestParallelFig09ByteIdentical does the same for the multi-run
// Figure 9 study, whose runs merge by run index.
func TestParallelFig09ByteIdentical(t *testing.T) {
	pr := Fig09Params{
		Runs:       3,
		FlowsEach:  4,
		Duration:   25,
		Warmup:     10,
		Timescales: []float64{0.5, 1, 5},
		Seed:       2,
	}
	var seq, par bytes.Buffer
	withParallelism(1, func() { RunFig09(pr).Table(&seq) })
	withParallelism(8, func() { RunFig09(pr).Table(&par) })
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("parallel Fig09 output differs from sequential:\n--- sequential\n%s--- parallel\n%s",
			seq.String(), par.String())
	}
}

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
	var a, b *Fig06Result
	withParallelism(4, func() { a = RunFig06(pr) })
	withParallelism(1, func() { b = RunFig06(pr) })
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
	r := RunFig06(pr)
	if got := r.Cells[0]; got.Seeds != 0 || got.NormTCPCI != 0 {
		t.Fatalf("Seeds=1 must leave CI fields zero: %+v", got)
	}
}
