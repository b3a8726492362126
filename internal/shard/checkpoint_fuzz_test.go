package shard

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"tfrc/internal/exp"
)

// FuzzLoadCheckpoint: whatever follows a valid header — torn lines,
// garbage, null or missing cells, out-of-order or repeated indices — the
// loader never panics and returns a contiguous prefix of the range from
// Lo: cell i is the cell of the i-th line after the header, that line's
// index is Lo+i, and the cell is valid JSON other than null.
func FuzzLoadCheckpoint(f *testing.F) {
	hdr := testHeader(exp.CellRange{Lo: 3, Hi: 9})
	head, err := json.Marshal(hdr)
	if err != nil {
		f.Fatal(err)
	}
	for _, tail := range []string{
		`{"index":3,"cell":{"v":0}}` + "\n" + `{"index":4,"cell":null}` + "\n" + `{"index":5,"cell":2}`,
		`{"index":3,"cell":1}` + "\r\n" + `{"index":4,"cell":[2]}` + "\n" + `{"index":6,"cell":3}` + "\n",
		`{"index":3}` + "\n" + `{"index":3,"cell":1}`,
		`{"index":3,"cell":1,"cell":null}`,
		`{"index":3,"cell":{"v":`,
		"\n\n",
	} {
		f.Add([]byte(tail))
	}
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "s.ckpt")
		if err := os.WriteFile(path, append(append(append([]byte{}, head...), '\n'), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := loadCheckpoint(path, hdr)
		if err != nil {
			t.Fatalf("valid header, loader error: %v", err)
		}
		if len(got) > hdr.CellRange.Len() {
			t.Fatalf("loaded %d cells of a %d-cell range", len(got), hdr.CellRange.Len())
		}
		lines := bytes.Split(tail, []byte("\n"))
		for i, c := range got {
			if c == nil || bytes.Equal(c, []byte("null")) || !json.Valid(c) {
				t.Fatalf("cell %d is %q: not a finished cell", i, c)
			}
			var line checkpointLine
			if i >= len(lines) || json.Unmarshal(bytes.TrimSuffix(lines[i], []byte("\r")), &line) != nil ||
				line.Index != hdr.CellRange.Lo+i || !bytes.Equal(line.Cell, c) {
				t.Fatalf("cell %d (%s) is not line %d of the tail with index %d", i, c, i, hdr.CellRange.Lo+i)
			}
		}
	})
}
