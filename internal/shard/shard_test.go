package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"testing"

	"tfrc/internal/exp"
	"tfrc/internal/sim"
)

// shardtest is a synthetic grid experiment for exercising the
// coordinator without simulation cost: each cell is a pure arithmetic
// function of (params, absolute index), which is exactly the contract
// real grid experiments promise.
type shardtestParams struct {
	N    int   `json:"n"`
	Seed int64 `json:"seed"`
}

func (p *shardtestParams) Validate() error {
	if p.N < 1 {
		return fmt.Errorf("N must be at least 1, got %d", p.N)
	}
	return nil
}

type shardtestCell struct {
	Index int     `json:"index"`
	Value float64 `json:"value"`
}

type shardtestResult struct {
	Sum   float64
	Cells []shardtestCell
}

func (r *shardtestResult) Table(w io.Writer) { fmt.Fprintf(w, "sum\t%v\n", r.Sum) }

func init() {
	exp.Define(exp.Spec[shardtestParams, shardtestCell, *shardtestResult]{
		Name:        "shardtest",
		Description: "synthetic pure-cell grid for shard coordinator tests",
		Default:     func() shardtestParams { return shardtestParams{N: 6, Seed: 1} },
		Cells:       func(p *shardtestParams) int { return p.N },
		Cell: func(_ *sim.Scheduler, p *shardtestParams, idx int) shardtestCell {
			// Irrational factors make the float payloads exercise
			// shortest-exact JSON round-tripping.
			v := float64(p.Seed)*math.Sqrt2 + float64(idx*idx)*math.Pi/7
			return shardtestCell{Index: idx, Value: v}
		},
		Reduce: func(_ *shardtestParams, cells []shardtestCell) *shardtestResult {
			res := &shardtestResult{Cells: cells}
			for _, c := range cells {
				res.Sum += c.Value
			}
			return res
		},
	})
}

// shardtestDesc returns the registered descriptor.
func shardtestDesc(t *testing.T) exp.Descriptor {
	t.Helper()
	d, ok := exp.Lookup("shardtest")
	if !ok {
		t.Fatal("shardtest experiment not registered")
	}
	return d
}

func TestSplitRangeCoversExactly(t *testing.T) {
	for _, tc := range []struct{ total, count int }{
		{10, 3}, {18, 4}, {5, 5}, {3, 7}, {1, 1}, {0, 3}, {100, 1},
	} {
		prevHi := 0
		for i := 0; i < tc.count; i++ {
			r := SplitRange(tc.total, i, tc.count)
			if r.Lo != prevHi {
				t.Errorf("total=%d count=%d: shard %d starts at %d, want %d (no gaps or overlaps)",
					tc.total, tc.count, i, r.Lo, prevHi)
			}
			if r.Len() < 0 {
				t.Errorf("total=%d count=%d: shard %d has negative length %d", tc.total, tc.count, i, r.Len())
			}
			prevHi = r.Hi
		}
		if prevHi != tc.total {
			t.Errorf("total=%d count=%d: shards end at %d, want %d", tc.total, tc.count, prevHi, tc.total)
		}
		// Even split: sizes differ by at most one.
		lo, hi := tc.total, 0
		for i := 0; i < tc.count; i++ {
			n := SplitRange(tc.total, i, tc.count).Len()
			lo, hi = min(lo, n), max(hi, n)
		}
		if hi-lo > 1 {
			t.Errorf("total=%d count=%d: shard sizes range %d..%d, want spread <= 1", tc.total, tc.count, lo, hi)
		}
	}
}

func TestParamsHash(t *testing.T) {
	h1, err := ParamsHash("fig6", []byte(`{"a": 1, "b": [2, 3]}`))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := ParamsHash("fig6", []byte("{\"a\":1,\"b\":[2,3]}"))
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("hash must ignore JSON whitespace: %s vs %s", h1, h2)
	}
	if h3, _ := ParamsHash("fig7", []byte(`{"a":1,"b":[2,3]}`)); h3 == h1 {
		t.Error("hash must cover the experiment name")
	}
	if h4, _ := ParamsHash("fig6", []byte(`{"a":2,"b":[2,3]}`)); h4 == h1 {
		t.Error("hash must cover the params")
	}
	if len(h1) != len("sha256:")+64 {
		t.Errorf("unexpected hash shape %q", h1)
	}
}

func TestMissingRanges(t *testing.T) {
	c := func(s string) json.RawMessage { return json.RawMessage(s) }
	cells := []json.RawMessage{nil, nil, c("1"), nil, c("2"), c("3"), nil}
	got := missingRanges(cells, 10)
	want := []exp.CellRange{{Lo: 10, Hi: 12}, {Lo: 13, Hi: 14}, {Lo: 16, Hi: 17}}
	if len(got) != len(want) {
		t.Fatalf("missingRanges = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("missingRanges[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if mr := missingRanges([]json.RawMessage{c("1")}, 0); len(mr) != 0 {
		t.Errorf("full coverage reported missing %v", mr)
	}
}

func TestShardParamsValidate(t *testing.T) {
	for _, tc := range []struct {
		p  ShardParams
		ok bool
	}{
		{ShardParams{Index: 0, Count: 1}, true},
		{ShardParams{Index: 2, Count: 3}, true},
		{ShardParams{Index: 3, Count: 3}, false},
		{ShardParams{Index: -1, Count: 3}, false},
		{ShardParams{Index: 0, Count: 0}, false},
		{ShardParams{Index: 0, Count: 1, Resume: true}, false}, // resume needs checkpoint
		{ShardParams{Index: 0, Count: 1, Resume: true, Checkpoint: "x"}, true},
	} {
		err := tc.p.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.p, err, tc.ok)
		}
	}
}

func TestEnvelopeFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "env.json")
	e := &Envelope{
		Schema:     EnvelopeSchema,
		Experiment: "shardtest",
		ParamsHash: "sha256:0000",
		Params:     json.RawMessage(`{"n":4,"seed":1}`),
		CellRange:  exp.CellRange{Lo: 0, Hi: 4},
		Cells: []json.RawMessage{
			json.RawMessage(`{"index":0,"value":1.5}`),
			nil, // uncomputed cell must survive as nil
			json.RawMessage(`{"index":2,"value":2.5}`),
			nil,
		},
		Complete: false,
		Missing:  []exp.CellRange{{Lo: 1, Hi: 2}, {Lo: 3, Hi: 4}},
	}
	if err := WriteEnvelopeFile(path, e); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEnvelopeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cells[1] != nil || got.Cells[3] != nil {
		t.Error("null cells must decode back to nil")
	}
	if got.Cells[0] == nil || got.Cells[2] == nil {
		t.Error("computed cells lost in round trip")
	}
	if got.Experiment != e.Experiment || got.ParamsHash != e.ParamsHash ||
		got.CellRange != e.CellRange || got.Complete != e.Complete {
		t.Errorf("round trip mutated the envelope: %+v", got)
	}
	if len(got.Missing) != 2 || got.Missing[0] != e.Missing[0] || got.Missing[1] != e.Missing[1] {
		t.Errorf("Missing round trip = %v, want %v", got.Missing, e.Missing)
	}

	// Schema gate: a future-schema envelope must be rejected loudly.
	e.Schema = "tfrc.shard.envelope/v999"
	if err := WriteEnvelopeFile(path, e); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEnvelopeFile(path); err == nil {
		t.Error("reading an unknown-schema envelope must fail")
	}
}
