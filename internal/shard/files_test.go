package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"tfrc/internal/exp"
)

// The shard files are written and read by hand-built code, with
// json.Encoder kept as the reference for every byte: an envelope is what
// Encode writes under SetIndent("", "  "), a checkpoint line what Encode
// writes for a checkpointLine.

// encoderEnvelope is the reference for WriteEnvelopeFile.
func encoderEnvelope(t *testing.T, e *Envelope) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(e); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// writeAndCompare writes e with WriteEnvelopeFile, fails unless the file
// holds the encoder's bytes, and returns the file's path.
func writeAndCompare(t *testing.T, e *Envelope) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "env.json")
	if err := WriteEnvelopeFile(path, e); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := encoderEnvelope(t, e); !bytes.Equal(got, want) {
		t.Fatalf("WriteEnvelopeFile differs from the encoder:\ngot:\n%s\nwant:\n%s", got, want)
	}
	return path
}

// oddCells are cells no json.Marshal writes but a hand-edited file or a
// caller can hold: space inside, before and after the value, scalars,
// empty containers, and the characters the encoder HTML-escapes.
var oddCells = []json.RawMessage{
	json.RawMessage(" {\n\t\"index\" : 1 ,\r\n \"v\": [ 1, 2 ], \"e\": { }, \"a\": [ ] } \n"),
	json.RawMessage(`1`),
	json.RawMessage(`"a<b>&c` + "\u2028\u2029" + `"`),
	json.RawMessage(`{"s":"<script>&amp;</script>","n":[{"x":"` + "\u2028" + `"}]}`),
	json.RawMessage(`[]`),
	json.RawMessage(`{}`),
	json.RawMessage("true\t"),
	json.RawMessage(`"é é \\u003c"`),
}

func TestEnvelopeBytesMatchEncoder(t *testing.T) {
	base := func(rng exp.CellRange) Envelope {
		return Envelope{
			Schema:     EnvelopeSchema,
			Experiment: "shardtest",
			ParamsHash: "sha256:0000",
			Params:     json.RawMessage(`{"n": 4, "seed": 1, "cells": null, "note": "a<b & c` + "\u2029" + `"}`),
			CellRange:  rng,
		}
	}
	cell := func(i int) json.RawMessage { return json.RawMessage(fmt.Sprintf(`{"index":%d,"value":%d.5}`, i, i)) }
	for _, tc := range []struct {
		name  string
		edit  func(e *Envelope)
		cells []json.RawMessage
	}{
		{"nil cells", func(e *Envelope) {}, nil},
		{"empty cells", func(e *Envelope) { e.CellRange = exp.CellRange{Lo: 3, Hi: 3} }, []json.RawMessage{}},
		{"single cell", func(e *Envelope) { e.CellRange = exp.CellRange{Lo: 0, Hi: 1}; e.Complete = true }, []json.RawMessage{cell(0)}},
		{"holes", func(e *Envelope) {
			e.CellRange = exp.CellRange{Lo: 0, Hi: 4}
			e.Missing = []exp.CellRange{{Lo: 1, Hi: 2}, {Lo: 3, Hi: 4}}
		}, []json.RawMessage{cell(0), nil, cell(2), nil}},
		{"all holes", func(e *Envelope) {
			e.CellRange = exp.CellRange{Lo: 0, Hi: 2}
			e.Missing = []exp.CellRange{{Lo: 0, Hi: 2}}
		},
			[]json.RawMessage{nil, nil}},
		{"odd cells", func(e *Envelope) { e.CellRange = exp.CellRange{Lo: 0, Hi: len(oddCells)} }, oddCells},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := base(exp.CellRange{})
			tc.edit(&e)
			e.Cells = tc.cells
			writeAndCompare(t, &e)
		})
	}

	// A hand-edited file: what ReadEnvelopeFile gives back writes as the
	// encoder writes it, and reads back to the same cells.
	t.Run("hand-edited", func(t *testing.T) {
		src := "{ \"schema\" : \"" + EnvelopeSchema + "\",\n\"experiment\":\"shardtest\", \"params_hash\":\"sha256:0000\",\n" +
			"\"params\": {\"n\" :3},\n\"cell_range\": {\"lo\":0, \"hi\":3},\n" +
			"\"cells\": [ {\"index\" : 0,\n   \"value\": 1.5 }  ,\t null , [ 1 ,\"<&>\" ]\n],\n" +
			"\"complete\": false, \"missing\": [{\"lo\":1,\"hi\":2}]}\n"
		in := filepath.Join(t.TempDir(), "hand.json")
		if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := ReadEnvelopeFile(in)
		if err != nil {
			t.Fatal(err)
		}
		if e.Cells[1] != nil {
			t.Fatalf("null cell read as %q", e.Cells[1])
		}
		back, err := ReadEnvelopeFile(writeAndCompare(t, e))
		if err != nil {
			t.Fatal(err)
		}
		for i := range e.Cells {
			var was, now any
			json.Unmarshal(e.Cells[i], &was)
			json.Unmarshal(back.Cells[i], &now)
			if !reflect.DeepEqual(now, was) || (back.Cells[i] == nil) != (e.Cells[i] == nil) {
				t.Errorf("cell %d reads back as %s, was %s", i, back.Cells[i], e.Cells[i])
			}
		}
	})

	t.Run("invalid cell", func(t *testing.T) {
		e := base(exp.CellRange{Lo: 0, Hi: 2})
		e.Cells = []json.RawMessage{cell(0), json.RawMessage(`{"a":`)}
		if err := WriteEnvelopeFile(filepath.Join(t.TempDir(), "bad.json"), &e); err == nil {
			t.Fatal("an invalid cell was written")
		}
	})
}

func TestCheckpointLinesMatchEncoder(t *testing.T) {
	cells := append(testCells(3), oddCells...)
	hdr := testHeader(exp.CellRange{Lo: 40, Hi: 40 + len(cells)})
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	if err := enc.Encode(hdr); err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if err := enc.Encode(checkpointLine{Index: hdr.CellRange.Lo + i, Cell: c}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "s.ckpt")
	w := &checkpointWriter{path: path, hdr: hdr}
	defer w.close()
	// A publish, then appends of one and of several lines.
	for _, done := range []int{2, 3, len(cells)} {
		if err := w.flush(cells, done); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("checkpoint differs from the encoder:\ngot:\n%s\nwant:\n%s", got, want.Bytes())
	}
	loaded, err := loadCheckpoint(path, hdr)
	if err != nil || len(loaded) != len(cells) {
		t.Fatalf("loaded %d of %d cells: %v", len(loaded), len(cells), err)
	}
}

// TestReduceRejectsCellsNotOneValue: Reduce decodes every cell through
// one decoder, yet a cell that is not exactly one JSON value fails as
// that cell, with json.Unmarshal's own message.
func TestReduceRejectsCellsNotOneValue(t *testing.T) {
	d := shardtestDesc(t)
	p := &shardtestParams{N: 4, Seed: 1}
	good, err := d.Grid.RunRange(p, exp.CellRange{Lo: 0, Hi: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{`1 2`, `{} x`, ``, ` `, `{"index":1,"value":`, `{"index":"x"}`, `[1]`} {
		for _, at := range []int{0, 2, 3} {
			cells := append([]json.RawMessage(nil), good...)
			cells[at] = json.RawMessage(bad)
			_, err := d.Grid.Reduce(p, cells)
			var c shardtestCell
			want := fmt.Sprintf("decoding cell %d: %v", at, json.Unmarshal([]byte(bad), &c))
			if err == nil || err.Error() != want {
				t.Errorf("cell %d = %q: Reduce error %v, want %s", at, bad, err, want)
			}
		}
	}
	// Space around a value is not a second one.
	cells := append([]json.RawMessage(nil), good...)
	cells[1] = append(append([]byte(" \n"), good[1]...), "\t\r\n "...)
	res, err := d.Grid.Reduce(p, cells)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := d.Grid.Reduce(p, good)
	if got, want := fmt.Sprint(res), fmt.Sprint(want); got != want {
		t.Errorf("padded cell reduced to %s, want %s", got, want)
	}
}

// A shard stage touches a cell's bytes once: each test below compares a
// small case with a large one, so what one more cell costs shows.

func TestAllocsCheckpointAppend(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	appendLines := func(n int) float64 {
		cells := testCells(n + 1)
		w := &checkpointWriter{path: filepath.Join(t.TempDir(), "s.ckpt"), hdr: testHeader(exp.CellRange{Lo: 0, Hi: n + 1})}
		defer w.close()
		if err := w.flush(cells, 1); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			w.done = 1
			if err := w.flush(cells, n+1); err != nil {
				t.Fatal(err)
			}
		})
	}
	a7, a63 := appendLines(7), appendLines(63)
	t.Logf("appending 7 lines: %.0f allocs; 63 lines: %.0f (parent commit: 7 and 63)", a7, a63)
	if a63 > a7 {
		t.Errorf("63 lines cost %.0f allocations, 7 lines %.0f: a line allocates", a63, a7)
	}
}

// envelopeFile writes an n-cell shardtest envelope and returns its path.
func envelopeFile(t *testing.T, n int) string {
	t.Helper()
	d := shardtestDesc(t)
	e, err := Run(RunSpec{Desc: d, Params: &shardtestParams{N: n, Seed: 1}, Shard: ShardParams{Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("env%d.json", n))
	if err := WriteEnvelopeFile(path, e); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAllocsEnvelopeRead(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	read := func(n int) float64 {
		path := envelopeFile(t, n)
		return testing.AllocsPerRun(10, func() {
			if _, err := ReadEnvelopeFile(path); err != nil {
				t.Fatal(err)
			}
		})
	}
	a8, a64 := read(8), read(64)
	t.Logf("reading 8 cells: %.0f allocs; 64 cells: %.0f (parent commit: 29 and 88)", a8, a64)
	if a64 > a8+4 {
		t.Errorf("64 cells cost %.0f allocations, 8 cells %.0f: more than the cell slice's growth", a64, a8)
	}

	// A cell shares the file's buffer but not its neighbour's room.
	e, err := ReadEnvelopeFile(envelopeFile(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := e.Cells[0], string(e.Cells[1])
	if cap(c0) != len(c0) {
		t.Errorf("cell 0 has capacity %d for %d bytes", cap(c0), len(c0))
	}
	_ = append(c0, ",garbage"...)
	if string(e.Cells[1]) != c1 {
		t.Error("appending to cell 0 overwrote cell 1")
	}
}

func TestAllocsReduce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	d := shardtestDesc(t)
	reduce := func(n int) float64 {
		p := &shardtestParams{N: n, Seed: 1}
		raw, err := d.Grid.RunRange(p, exp.CellRange{Lo: 0, Hi: n})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := d.Grid.Reduce(p, raw); err != nil {
				t.Fatal(err)
			}
		})
	}
	a8, a64 := reduce(8), reduce(64)
	t.Logf("reducing 8 cells: %.0f allocs; 64 cells: %.0f (parent commit: 34 and 258)", a8, a64)
	if a64 > a8+4 {
		t.Errorf("64 cells cost %.0f allocations, 8 cells %.0f: a cell allocates", a64, a8)
	}
}

func TestAllocsEnvelopeWrite(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	src := envelopeFile(t, 64)
	e, err := ReadEnvelopeFile(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(src)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "env.json")
	least := ^uint64(0)
	var ms runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if err := WriteEnvelopeFile(path, e); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	ratio := float64(least) / float64(info.Size())
	t.Logf("writing a %d-byte envelope: %d bytes allocated, %.2fx its size (parent commit: 5.36x)", info.Size(), least, ratio)
	if ratio > 2.5 {
		t.Errorf("writing a %d-byte envelope allocated %d bytes, %.2fx its size; want at most 2.5x", info.Size(), least, ratio)
	}
}
