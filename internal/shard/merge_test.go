package shard

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tfrc/internal/exp"
)

// runShards computes the full grid as count independent shard runs.
func runShards(t *testing.T, count int, params func() exp.Params) []*Envelope {
	t.Helper()
	d := shardtestDesc(t)
	envs := make([]*Envelope, count)
	for i := range envs {
		e, err := Run(RunSpec{Desc: d, Params: params(), Shard: ShardParams{Index: i, Count: count}})
		if err != nil {
			t.Fatal(err)
		}
		envs[i] = e
	}
	return envs
}

// TestMergeByteIdenticalAtAnyShardCount is the core contract: reducing
// a merge of N shard envelopes reproduces the single-machine result
// byte-for-byte for every N.
func TestMergeByteIdenticalAtAnyShardCount(t *testing.T) {
	d := shardtestDesc(t)
	params := func() exp.Params { return &shardtestParams{N: 11, Seed: 7} }

	direct, err := exp.RunExperiment(d, params(), exp.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	for _, count := range []int{1, 2, 3, 5, 11} {
		merged, err := Merge(runShards(t, count, params), false)
		if err != nil {
			t.Fatalf("count=%d: %v", count, err)
		}
		if !merged.Complete {
			t.Fatalf("count=%d: merge of all shards must be complete", count)
		}
		res, p, err := Reduce(merged)
		if err != nil {
			t.Fatalf("count=%d: %v", count, err)
		}
		gotJSON, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, directJSON) {
			t.Fatalf("count=%d: merged result differs from single-machine run:\nwant %s\ngot  %s",
				count, directJSON, gotJSON)
		}
		pj, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pj, []byte(`{"n":11,"seed":7}`)) {
			t.Fatalf("count=%d: decoded params %s", count, pj)
		}
	}
}

// TestMergeOrderIndependent: merge input order must not matter.
func TestMergeOrderIndependent(t *testing.T) {
	params := func() exp.Params { return &shardtestParams{N: 9, Seed: 3} }
	envs := runShards(t, 3, params)
	a, err := Merge([]*Envelope{envs[0], envs[1], envs[2]}, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Merge([]*Envelope{envs[2], envs[0], envs[1]}, false)
	if err != nil {
		t.Fatal(err)
	}
	assertEnvelopesIdentical(t, a, b)
}

func TestMergeRejectsOverlap(t *testing.T) {
	params := func() exp.Params { return &shardtestParams{N: 8, Seed: 1} }
	envs := runShards(t, 2, params) // [0,4) [4,8)
	over, err := Run(RunSpec{Desc: shardtestDesc(t), Params: params(),
		Shard: ShardParams{Index: 1, Count: 3}}) // [2,5)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Merge(append(envs, over), false)
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlapping ranges must be rejected with an actionable message, got %v", err)
	}
}

func TestMergeRejectsGapsUnlessPartial(t *testing.T) {
	params := func() exp.Params { return &shardtestParams{N: 9, Seed: 5} }
	envs := runShards(t, 3, params) // [0,3) [3,6) [6,9)
	gapped := []*Envelope{envs[0], envs[2]}

	_, err := Merge(gapped, false)
	if err == nil || !strings.Contains(err.Error(), "[3,6)") {
		t.Fatalf("gapped merge must name the missing cells, got %v", err)
	}

	partial, err := Merge(gapped, true)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Complete {
		t.Fatal("gapped merge cannot be complete")
	}
	if len(partial.Missing) != 1 || partial.Missing[0] != (exp.CellRange{Lo: 3, Hi: 6}) {
		t.Fatalf("Missing = %v, want [[3,6)]", partial.Missing)
	}
	if len(partial.Cells) != 9 || partial.Cells[3] != nil || partial.Cells[2] == nil {
		t.Fatal("partial merge cells misaligned")
	}
	if _, _, err := Reduce(partial); err == nil {
		t.Fatal("reducing a partial envelope must fail")
	}

	// A partial envelope must survive a file round trip and then accept
	// the late shard to become complete.
	late, err := Merge([]*Envelope{partial, envs[1]}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !late.Complete {
		t.Fatal("backfilled merge must be complete")
	}
	full, err := Merge(envs, false)
	if err != nil {
		t.Fatal(err)
	}
	assertEnvelopesIdentical(t, full, late)
}

func TestMergeRejectsParamsHashMismatch(t *testing.T) {
	paramsA := func() exp.Params { return &shardtestParams{N: 8, Seed: 1} }
	paramsB := func() exp.Params { return &shardtestParams{N: 8, Seed: 2} }
	d := shardtestDesc(t)
	a, err := Run(RunSpec{Desc: d, Params: paramsA(), Shard: ShardParams{Index: 0, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(RunSpec{Desc: d, Params: paramsB(), Shard: ShardParams{Index: 1, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Merge([]*Envelope{a, b}, false)
	if err == nil || !strings.Contains(err.Error(), "params hash mismatch") {
		t.Fatalf("cross-params merge must be rejected, got %v", err)
	}
}

func TestReduceRejectsTamperedEnvelope(t *testing.T) {
	params := func() exp.Params { return &shardtestParams{N: 4, Seed: 1} }
	env, err := Merge(runShards(t, 1, params), false)
	if err != nil {
		t.Fatal(err)
	}
	env.Params = json.RawMessage(`{"n":4,"seed":9}`) // hash no longer matches
	if _, _, err := Reduce(env); err == nil {
		t.Fatal("a tampered envelope (params edited after writing) must be rejected")
	}
}
