package exp

import (
	"bytes"
	"encoding/json"
	"testing"

	"tfrc/internal/netsim"
)

// ccfairOneCell is a single-cell grid for head-to-head assertions.
func ccfairOneCell(protoA, protoB string, queue netsim.QueueKind) CCFairParams {
	return CCFairParams{
		ProtoA:   protoA,
		ProtoB:   protoB,
		FlowsA:   1,
		FlowsB:   1,
		Topology: "dumbbell",
		RTTs:     []float64{0.08},
		LinkMbps: []float64{8},
		Queue:    queue,
		Duration: 60,
		Warmup:   20,
		Seed:     1,
	}
}

// TestCCFairTFRCFriendly is the paper's claim as an assertion: TFRC and
// Reno sharing a RED bottleneck at equal RTT split the link close to
// evenly — the long-run throughput ratio stays within [0.75, 1.33].
func TestCCFairTFRCFriendly(t *testing.T) {
	pr := ccfairOneCell("tfrc", "reno", netsim.QueueRED)
	pr.FlowsA, pr.FlowsB = 2, 2
	res := RunCCFair(pr)
	c := res.Cells[0]
	if c.RatioAB < 0.75 || c.RatioAB > 1.33 {
		t.Fatalf("TFRC:Reno throughput ratio %v outside [0.75, 1.33]: %+v", c.RatioAB, c)
	}
	if c.Jain < 0.9 {
		t.Fatalf("Jain index %v < 0.9 for a TCP-friendly pairing: %+v", c.Jain, c)
	}
}

// TestCCFairRelentlessUnfair: a controller that repairs losses for one
// packet each instead of halving beats Reno at the same bottleneck.
func TestCCFairRelentlessUnfair(t *testing.T) {
	res := RunCCFair(ccfairOneCell("relentless", "reno", netsim.QueueRED))
	c := res.Cells[0]
	if c.RatioAB < 1.2 {
		t.Fatalf("Relentless:Reno ratio %v, want the documented unfairness (> 1.2): %+v", c.RatioAB, c)
	}
	if c.ShareA <= c.ShareB {
		t.Fatalf("Relentless share %v should exceed Reno's %v", c.ShareA, c.ShareB)
	}
}

// TestCCFairLEDBATYields: against a loss-filling Reno flow at a
// DropTail bottleneck, the scavenger all but vanishes — the queueing
// delay sits over its target long before loss appears.
func TestCCFairLEDBATYields(t *testing.T) {
	res := RunCCFair(ccfairOneCell("ledbat", "reno", netsim.QueueDropTail))
	c := res.Cells[0]
	if c.RatioAB > 0.2 {
		t.Fatalf("LEDBAT:Reno ratio %v, want near-starvation (< 0.2): %+v", c.RatioAB, c)
	}
	if c.QueueDelay < 0.025 {
		t.Fatalf("mean queue delay %v should exceed LEDBAT's 25 ms target (that is why it yields)", c.QueueDelay)
	}
}

// TestCCFairVegasLosesToReno: the classic result that pushed delay-based
// control out of the mainstream Internet — Reno fills the buffer Vegas
// is trying to keep empty.
func TestCCFairVegasLosesToReno(t *testing.T) {
	res := RunCCFair(ccfairOneCell("vegas", "reno", netsim.QueueDropTail))
	c := res.Cells[0]
	if c.ShareA > 0.3 {
		t.Fatalf("Vegas share %v vs Reno, want < 0.3 (buffer-filling rival wins): %+v", c.ShareA, c)
	}
}

// TestCCFairParkingLot: the multi-bottleneck topology wires up and
// produces a sane cell.
func TestCCFairParkingLot(t *testing.T) {
	pr := ccfairOneCell("tfrc", "reno", netsim.QueueRED)
	pr.Topology = "parkinglot"
	pr.Bottlenecks = 2
	res := RunCCFair(pr)
	c := res.Cells[0]
	if c.Utilization < 0.5 {
		t.Fatalf("parking-lot bottleneck utilization %v < 0.5: %+v", c.Utilization, c)
	}
	if sum := c.ShareA + c.ShareB; sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares do not sum to 1: %v + %v", c.ShareA, c.ShareB)
	}
}

// TestCCFairParallelByteIdentical: the grid merges in deterministic
// order, so output is bit-identical at any parallelism.
func TestCCFairParallelByteIdentical(t *testing.T) {
	pr := CCFairParams{
		ProtoA:   "tfrc",
		ProtoB:   "relentless",
		FlowsA:   1,
		FlowsB:   1,
		Topology: "dumbbell",
		RTTs:     []float64{0.06, 0.12},
		LinkMbps: []float64{4},
		Queue:    netsim.QueueRED,
		Duration: 30,
		Warmup:   10,
		Seed:     2,
		Seeds:    2,
	}
	var seq, par bytes.Buffer
	runWith[*CCFairResult](t, "ccfair", &pr, 1).Table(&seq)
	runWith[*CCFairResult](t, "ccfair", &pr, 8).Table(&par)
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("parallel ccfair output differs from sequential:\n--- sequential\n%s--- parallel\n%s",
			seq.String(), par.String())
	}
}

// TestCCFairShardMergeByteIdentical exercises the registry's Grid
// contract the way tfrcsim shard/merge does: three uneven shards of the
// cell space, reassembled and reduced, must reproduce the
// single-machine result byte for byte.
func TestCCFairShardMergeByteIdentical(t *testing.T) {
	d, ok := Lookup("ccfair")
	if !ok || d.Grid == nil {
		t.Fatal("ccfair is not registered as a grid experiment")
	}
	pr := CCFairParams{
		ProtoA:   "vegas",
		ProtoB:   "reno",
		FlowsA:   1,
		FlowsB:   1,
		Topology: "dumbbell",
		RTTs:     []float64{0.06, 0.12},
		LinkMbps: []float64{4},
		Queue:    netsim.QueueRED,
		Duration: 30,
		Warmup:   10,
		Seed:     3,
		Seeds:    2,
	}
	n, err := d.Grid.Cells(&pr)
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	if n != 4 {
		t.Fatalf("grid has %d cells, want 4 (2 RTTs x 1 bandwidth x 2 seeds)", n)
	}

	var single bytes.Buffer
	RunCCFair(pr).Table(&single)

	var merged []json.RawMessage
	for _, r := range []CellRange{{0, 1}, {1, 3}, {3, 4}} {
		part, err := d.Grid.RunRange(&pr, r)
		if err != nil {
			t.Fatalf("RunRange(%v): %v", r, err)
		}
		merged = append(merged, part...)
	}
	res, err := d.Grid.Reduce(&pr, merged)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	var sharded bytes.Buffer
	res.Table(&sharded)
	if !bytes.Equal(single.Bytes(), sharded.Bytes()) {
		t.Fatalf("3-shard merge differs from single-machine run:\n--- single\n%s--- sharded\n%s",
			single.String(), sharded.String())
	}
}
