package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// contractOverlays gives every registered experiment parameters small
// enough to run as single cells several times over; experiments with a
// replicate axis run two replicates so the replicate-minor index
// decoding and the mean ± CI reduction are on the path.
var contractOverlays = map[string]string{
	"fig2":       `{"T1": 2, "T2": 3, "Duration": 5}`,
	"fig3":       `{"BufferSizes": [4, 16], "Duration": 20, "Warmup": 5}`,
	"fig4":       `{"BufferSizes": [4, 16], "Duration": 20, "Warmup": 5}`,
	"fig5":       `{"PLoss": [0.01, 0.05, 0.1]}`,
	"fig6":       `{"LinkMbps": [2, 4], "TotalFlows": [2, 4], "Duration": 10, "MeasureTail": 5, "Seeds": 2}`,
	"fig7":       `{"TotalFlows": [4, 8], "Duration": 10, "MeasureTail": 5}`,
	"fig8":       `{"Flows": 4, "Seeds": 2}`,
	"fig9":       `{"Runs": 3, "FlowsEach": 2, "Duration": 15, "Warmup": 5, "Timescales": [0.5, 1, 5]}`,
	"fig11":      `{"Sources": [5, 10], "Duration": 20, "Warmup": 5, "Timescales": [0.5, 2], "Runs": 2}`,
	"fig14":      `{"Flows": 4, "Stagger": 2, "Duration": 6, "Seeds": 2}`,
	"fig15":      `{"Duration": 20, "Seeds": 2}`,
	"fig16":      `{"Timescales": [1, 5], "Duration": 20}`,
	"fig18":      `{"HistorySizes": [2, 8], "Duration": 20}`,
	"fig19":      `{"SwitchTime": 3, "Duration": 5}`,
	"fig20":      `{"SwitchTime": 3, "Duration": 5}`,
	"fig21":      `{"DropRates": [0.01, 0.1]}`,
	"ccfair":     `{"RTTs": [0.06, 0.12], "LinkMbps": [4], "Duration": 15, "Warmup": 5, "Seeds": 2}`,
	"chaos":      `{"Cells": 3, "Duration": 25}`,
	"faultphase": `{"NTCP": 0, "NTFRC": 1, "LinkMbps": 4, "Faults": {"faults": [{"at": 8, "link": "rr->rl", "kind": "blackhole"}, {"at": 14, "link": "rr->rl", "kind": "blackhole-off"}]}, "Duration": 24}`,
	"manyflows":  `{"Flows": [50, 100], "Duration": 5, "Warmup": 2}`,
	"parkinglot": `{"Bottlenecks": [1, 3], "Duration": 15, "Warmup": 5, "Seeds": 2}`,
}

// extraOverlays run the contract a second time on an experiment whose
// one overlay cannot reach a path: a fault schedule that was once an
// experiment of its own, under that experiment's name, or a controller
// the defaults do not run. Each is an experiment name and its
// parameters.
var extraOverlays = map[string][2]string{
	"bwstep":            {"faultphase", `{"Faults": {"faults": [{"at": 6, "link": "rl->rr", "kind": "bandwidth", "bandwidth": 4e6}, {"at": 12, "link": "rl->rr", "kind": "bandwidth", "bandwidth": 8e6}]}, "Duration": 18, "Seeds": 2}`},
	"ccfair-relentless": {"ccfair", `{"ProtoB": "relentless", "FlowsA": 1, "FlowsB": 1, "RTTs": [0.06, 0.12], "LinkMbps": [4], "Duration": 15, "Warmup": 5, "Seeds": 2}`},
}

// rendered is a Result as both output formats.
func rendered(t *testing.T, res Result) []byte {
	t.Helper()
	var b bytes.Buffer
	res.Table(&b)
	j, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshaling result: %v", err)
	}
	return append(b.Bytes(), j...)
}

// TestEveryExperimentIsAGrid is the contract Define promises for all
// registered experiments: a Grid whose cells, computed one at a time in
// reverse order and carried through JSON, reduce to exactly what Run
// prints, at any worker count.
func TestEveryExperimentIsAGrid(t *testing.T) {
	if n := len(Experiments()); n != len(contractOverlays) {
		t.Errorf("%d experiments registered, %d have contract parameters", n, len(contractOverlays))
	}
	for _, d := range Experiments() {
		t.Run(d.Name, func(t *testing.T) { checkGrid(t, d, contractOverlays[d.Name]) })
	}
	for name, ov := range extraOverlays {
		t.Run(name, func(t *testing.T) {
			d, ok := Lookup(ov[0])
			if !ok {
				t.Fatalf("no experiment %q", ov[0])
			}
			checkGrid(t, d, ov[1])
		})
	}
}

// checkGrid holds d's Grid to the contract at the parameters overlay
// sets over its defaults.
func checkGrid(t *testing.T, d Descriptor, overlay string) {
	t.Helper()
	if d.Grid == nil {
		t.Fatal("no Grid")
	}
	p := d.Params()
	dec := json.NewDecoder(strings.NewReader(overlay))
	dec.DisallowUnknownFields()
	if err := dec.Decode(p); err != nil {
		t.Fatalf("overlay: %v", err)
	}
	run := func(workers int) []byte {
		res, err := RunExperiment(d, p, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return rendered(t, res)
	}
	whole := run(1)
	if par := run(8); !bytes.Equal(whole, par) {
		t.Error("Run differs between 1 and 8 workers")
	}

	n, err := d.Grid.Cells(p)
	if err != nil || n < 1 {
		t.Fatalf("Cells = %d, %v", n, err)
	}
	cells := make([]json.RawMessage, n)
	for i := n - 1; i >= 0; i-- {
		one, err := d.Grid.RunRange(p, CellRange{i, i + 1})
		if err != nil || len(one) != 1 {
			t.Fatalf("RunRange(cell %d): %d payloads, %v", i, len(one), err)
		}
		cells[i] = one[0]
	}
	res, err := d.Grid.Reduce(p, cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := rendered(t, res); !bytes.Equal(got, whole) {
		t.Errorf("Reduce over single cells differs from Run (%d vs %d bytes)", len(got), len(whole))
	}
	if _, err := d.Grid.RunRange(p, CellRange{0, n + 1}); err == nil {
		t.Error("RunRange past the last cell succeeded")
	}
}

// TestManyFlowsHonoursInterrupt: the ladder used to be a bare loop that
// never consulted the run context; as cells, a cancelled run starts no
// rung.
func TestManyFlowsHonoursInterrupt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	d, _ := Lookup("manyflows")
	pr := DefaultManyFlows()
	pr.Flows = []int{50, 100}
	res, err := RunExperiment(d, &pr, RunOptions{Ctx: ctx})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	for i, c := range res.(*ManyFlowsResult).Cells {
		if c.Flows != 0 || c.DeliveredPkts != 0 {
			t.Fatalf("rung %d ran despite the cancelled context: %+v", i, c)
		}
	}
}

// TestFig08QueuesAreCells: fig8 used to run its queue disciplines back
// to back whatever the worker count; every (queue, replicate) is now a
// cell of its own.
func TestFig08QueuesAreCells(t *testing.T) {
	d, _ := Lookup("fig8")
	pr := DefaultFig08Grid()
	pr.Seeds = 3
	if n, err := d.Grid.Cells(&pr); err != nil || n != len(pr.Queues)*pr.Seeds {
		t.Fatalf("Cells = %d, %v; want %d", n, err, len(pr.Queues)*pr.Seeds)
	}
}

// TestUnravel pins the index decoder: last axis fastest, no allocation.
func TestUnravel(t *testing.T) {
	idx := 0
	for a := 0; a < 2; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 4; c++ {
				if at := unravel(idx, 2, 3, 4); at != [4]int{a, b, c} {
					t.Fatalf("unravel(%d) = %v, want [%d %d %d 0]", idx, at, a, b, c)
				}
				idx++
			}
		}
	}
	if n := testing.AllocsPerRun(10, func() { unravel(17, 2, 3, 4, 5) }); n != 0 {
		t.Fatalf("unravel allocates %v times per call", n)
	}
}

// TestDecodeCellsKeepsCellBounds: one decoder reads every cell, yet each
// cell stays its own value — two numbers do not run together, a cell
// larger than the decoder's buffer reads whole — and a cell that is not
// exactly one value fails as json.Unmarshal fails it alone.
func TestDecodeCellsKeepsCellBounds(t *testing.T) {
	raw := []json.RawMessage{[]byte(`1`), []byte(`2`), []byte(" 3\n"), []byte(`-4e1`)}
	got := make([]float64, len(raw))
	if err := decodeCells(raw, got); err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 2, 3, -40}; !slices.Equal(got, want) {
		t.Errorf("decoded %v, want %v", got, want)
	}
	for _, bad := range []string{``, "\n", `1 2`, `[`, `"x"`, `1]`} {
		cells := slices.Clone(raw)
		cells[1] = json.RawMessage(bad)
		var f float64
		want := fmt.Sprintf("decoding cell 1: %v", json.Unmarshal([]byte(bad), &f))
		if err := decodeCells(cells, make([]float64, len(cells))); err == nil || err.Error() != want {
			t.Errorf("cell 1 = %q: %v, want %s", bad, err, want)
		}
	}

	long := make([]int, 2000)
	for i := range long {
		long[i] = i
	}
	big, err := json.Marshal(long)
	if err != nil {
		t.Fatal(err)
	}
	lists := make([][]int, 3)
	if err := decodeCells([]json.RawMessage{[]byte(`[]`), big, []byte(`[7]`)}, lists); err != nil {
		t.Fatal(err)
	}
	if len(lists[0]) != 0 || !slices.Equal(lists[1], long) || !slices.Equal(lists[2], []int{7}) {
		t.Errorf("decoded lists of %d, %d, %d ints", len(lists[0]), len(lists[1]), len(lists[2]))
	}
}
