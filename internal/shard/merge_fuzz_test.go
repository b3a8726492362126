package shard

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"tfrc/internal/exp"
)

// FuzzMergeEnvelopes feeds two arbitrary envelope files through
// ReadEnvelopeFile and Merge, as "tfrcsim merge" does. Nothing panics;
// envelopes Merge accepts merge to the same bytes in either order; a
// merge that claims completeness holds a computed cell at every index —
// a null or missing cell is an error, never a zero cell; and an accepted
// merge written with WriteEnvelopeFile holds the encoder's bytes and
// reads back to the same cells.
func FuzzMergeEnvelopes(f *testing.F) {
	params := []byte(`{"n":5,"seed":3}`)
	hash, err := ParamsHash("shardtest", params)
	if err != nil {
		f.Fatal(err)
	}
	var files [][]byte
	for _, rng := range []exp.CellRange{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 5}, {Lo: 0, Hi: 5}} {
		e := &Envelope{Schema: EnvelopeSchema, Experiment: "shardtest", ParamsHash: hash, Params: params, CellRange: rng}
		for i := rng.Lo; i < rng.Hi; i++ {
			c, err := json.Marshal(shardtestCell{Index: i, Value: float64(i)})
			if err != nil {
				f.Fatal(err)
			}
			e.Cells = append(e.Cells, c)
		}
		b, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		files = append(files, b)
	}
	lo, hi, whole := files[0], files[1], files[2]
	f.Add(lo, hi)
	f.Add(hi, lo)
	f.Add(whole, whole)
	f.Add(lo, bytes.Replace(hi, []byte(`{"index":3,"value":3}`), []byte(`null`), 1))
	f.Add(lo, bytes.Replace(hi, []byte(`{"index":3,"value":3}`), []byte(` null `), 1))
	f.Add(lo, bytes.Replace(hi, []byte(`{"index":3,"value":3}`), []byte(" { \"index\" : 3 ,\n\"value\":\"<&>\u2028\" } "), 1))
	f.Add(lo, bytes.Replace(hi, []byte(`,{"index":4,"value":4}`), nil, 1))
	f.Add(lo, bytes.Replace(hi, []byte(`"hi":5`), []byte(`"hi":6`), 1))
	f.Add(whole, []byte(`{}`))

	// One directory per fuzzing process: the files are rewritten on every
	// input, so the loop pays for two small writes, not a directory.
	dir := f.TempDir()
	isNull := func(c json.RawMessage) bool { return c != nil && bytes.Equal(bytes.TrimSpace(c), []byte("null")) }
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var envs []*Envelope
		for i, data := range [][]byte{a, b} {
			path := filepath.Join(dir, string(rune('a'+i))+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			e, err := ReadEnvelopeFile(path)
			if err != nil {
				continue
			}
			for j, c := range e.Cells {
				if isNull(c) {
					t.Fatalf("envelope %d cell %d read as a null cell, not a missing one", i, j)
				}
			}
			envs = append(envs, e)
		}
		if len(envs) == 0 {
			return
		}
		reversed := make([]*Envelope, len(envs))
		for i, e := range envs {
			reversed[len(envs)-1-i] = e
		}
		for _, partial := range []bool{false, true} {
			m1, err1 := Merge(envs, partial)
			m2, err2 := Merge(reversed, partial)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("partial=%v: merge accepted in one order only: %v vs %v", partial, err1, err2)
			}
			if err1 != nil {
				continue
			}
			j1, err := json.Marshal(m1)
			if err != nil {
				t.Fatal(err)
			}
			j2, err := json.Marshal(m2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j1, j2) {
				t.Fatalf("partial=%v: merge depends on input order:\n%s\n%s", partial, j1, j2)
			}
			if !partial && !m1.Complete {
				t.Fatalf("a merge without -allow-partial returned an incomplete envelope: %s", j1)
			}
			if m1.Complete != (len(m1.Missing) == 0) {
				t.Fatalf("Complete=%v with Missing %v", m1.Complete, m1.Missing)
			}
			for i, c := range m1.Cells {
				if m1.Complete && c == nil {
					t.Fatalf("complete merge has no cell %d", i)
				}
				if isNull(c) {
					t.Fatalf("merge carries a null cell %d", i)
				}
			}
			// The merge writes as the encoder writes it and reads back to
			// the same cells.
			out := filepath.Join(dir, "merged.json")
			if err := WriteEnvelopeFile(out, m1); err != nil {
				t.Fatalf("partial=%v: writing an accepted merge: %v", partial, err)
			}
			written, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if want := encoderEnvelope(t, m1); !bytes.Equal(written, want) {
				t.Fatalf("partial=%v: WriteEnvelopeFile differs from the encoder:\n%s\n%s", partial, written, want)
			}
			back, err := ReadEnvelopeFile(out)
			if err != nil {
				t.Fatalf("partial=%v: reading a written merge: %v", partial, err)
			}
			for i, c := range m1.Cells {
				if (back.Cells[i] == nil) != (c == nil) || !bytes.Equal(encoded(back.Cells[i]), encoded(c)) {
					t.Fatalf("partial=%v: cell %d reads back as %s, was %s", partial, i, back.Cells[i], c)
				}
			}
			if m1.Complete {
				Reduce(m1) // may reject the cells, must not panic
			}
		}
	})
}

// encoded is a cell as the encoder writes it: compact and HTML-escaped.
func encoded(c json.RawMessage) []byte {
	var b bytes.Buffer
	if c != nil {
		json.NewEncoder(&b).Encode(c)
	}
	return b.Bytes()
}
