// Package shard is the fault-tolerant distributed sweep coordinator.
// It runs on the pure-cell Grid contract (internal/exp): a grid
// experiment's cells are pure functions of (params, absolute index), so
// any cell range can be computed by any process on any machine, crash
// and resume at any point, and the reassembled full set reduces to a
// Result byte-identical to a single-machine run.
//
// The package has three entry points, mirrored by the tfrcsim
// subcommands:
//
//   - Run computes one shard's cell range with optional crash-safe
//     checkpointing and resume ("tfrcsim shard run").
//   - Exec supervises a local fan-out of shard subprocesses, restarting
//     crashed or hung ones with capped, seeded-jitter backoff, and
//     merges what they produced ("tfrcsim shard exec").
//   - Merge validates and reassembles shard envelopes, and Reduce
//     re-runs the experiment's reduce step over a complete merge
//     ("tfrcsim merge").
//
// Every artifact is a versioned JSON envelope (EnvelopeSchema), so
// partial results from a permanently failed fleet are still well-formed:
// complete=false with the missing cell ranges enumerated, never a
// truncated file.
package shard

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"tfrc/internal/exp"
)

// EnvelopeSchema versions the partial-result envelope format. Bump on
// any incompatible change so stale files fail loudly at merge time.
const EnvelopeSchema = "tfrc.shard.envelope/v1"

// CheckpointSchema versions the checkpoint file format.
const CheckpointSchema = "tfrc.shard.checkpoint/v1"

// ShardParams configures one shard's slice of an experiment grid and
// its checkpointing behavior.
type ShardParams struct {
	// Index/Count address this shard's contiguous slice of the cell
	// index space: SplitRange(total, Index, Count).
	Index int
	Count int
	// Checkpoint is the checkpoint file path; empty disables
	// checkpointing. The checkpoint is flushed every time the
	// contiguous finished prefix grows, so a crash costs only the cells
	// not yet in it: those in flight and those finished behind a slower
	// one. The first flush of a run publishes the file atomically
	// (write-temp, fsync, rename); every later one appends and fsyncs.
	Checkpoint string
	// Resume loads an existing checkpoint (validating experiment,
	// params hash, and range) and recomputes only the missing tail. A
	// missing checkpoint file is a fresh start, not an error, so
	// supervisors can pass Resume unconditionally.
	Resume bool
}

// Validate checks that the shard addressing is coherent; RunWith
// calls it before any cell runs.
func (p *ShardParams) Validate() error {
	if p.Count < 1 {
		return fmt.Errorf("shard count must be at least 1, got %d", p.Count)
	}
	if p.Index < 0 || p.Index >= p.Count {
		return fmt.Errorf("shard index must be in [0, %d), got %d", p.Count, p.Index)
	}
	if p.Resume && p.Checkpoint == "" {
		return fmt.Errorf("Resume requires a Checkpoint path")
	}
	return nil
}

// Envelope is the versioned partial-result container every shard run,
// supervisor, and merge emits. Cells is index-aligned with CellRange
// (Cells[i] holds cell CellRange.Lo+i); a nil entry is a cell nobody
// computed, and Missing enumerates those as ranges. Complete means full
// coverage of the experiment's cell space — only a complete envelope
// can be reduced to a Result.
type Envelope struct {
	Schema     string            `json:"schema"`
	Experiment string            `json:"experiment"`
	ParamsHash string            `json:"params_hash"`
	Params     json.RawMessage   `json:"params"`
	CellRange  exp.CellRange     `json:"cell_range"`
	Cells      []json.RawMessage `json:"cells"`
	Complete   bool              `json:"complete"`
	Missing    []exp.CellRange   `json:"missing,omitempty"`
}

// Validate checks the envelope's internal coherence (schema, range
// shape, cell alignment). Cross-envelope checks live in Merge.
func (e *Envelope) Validate() error {
	if e.Schema != EnvelopeSchema {
		return fmt.Errorf("unsupported envelope schema %q (this build reads %q)", e.Schema, EnvelopeSchema)
	}
	if e.Experiment == "" {
		return fmt.Errorf("envelope has no experiment name")
	}
	if e.ParamsHash == "" {
		return fmt.Errorf("envelope has no params hash")
	}
	if e.CellRange.Lo < 0 || e.CellRange.Hi < e.CellRange.Lo {
		return fmt.Errorf("malformed cell range %s", e.CellRange)
	}
	if len(e.Cells) != e.CellRange.Len() {
		return fmt.Errorf("envelope carries %d cells for range %s (want %d)",
			len(e.Cells), e.CellRange, e.CellRange.Len())
	}
	return nil
}

// ParamsHash fingerprints (experiment, exact parameters): sha256 over
// the experiment name and the compact parameter JSON. Shards of one
// sweep must agree on it before their cells may be merged.
func ParamsHash(experiment string, paramsJSON []byte) (string, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, paramsJSON); err != nil {
		return "", fmt.Errorf("hashing params: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(experiment))
	h.Write([]byte("\n"))
	h.Write(compact.Bytes())
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// SplitRange returns shard index's contiguous slice of [0, total) under
// an even split into count shards: all slices cover the space exactly
// and differ in size by at most one cell.
func SplitRange(total, index, count int) exp.CellRange {
	return exp.CellRange{Lo: index * total / count, Hi: (index + 1) * total / count}
}

// missingRanges enumerates the maximal runs of nil entries in cells as
// absolute cell ranges (cells[i] addresses cell lo+i).
func missingRanges(cells []json.RawMessage, lo int) []exp.CellRange {
	var out []exp.CellRange
	for i := 0; i < len(cells); {
		if cells[i] != nil {
			i++
			continue
		}
		j := i
		for j < len(cells) && cells[j] == nil {
			j++
		}
		out = append(out, exp.CellRange{Lo: lo + i, Hi: lo + j})
		i = j
	}
	return out
}

// WriteEnvelopeFile writes the envelope as json.Encoder writes it with
// SetIndent("", "  "), via the atomic write-temp, fsync, rename
// discipline a checkpoint is published with, so a crash mid-write never
// leaves a torn envelope behind. The file is built in one buffer of its
// exact size: the encoder writes every field but the cells, and each
// cell is indented into its place.
func WriteEnvelopeFile(path string, e *Envelope) error {
	data, err := marshalEnvelope(e)
	if err != nil {
		return fmt.Errorf("encoding envelope: %w", err)
	}
	return atomicWrite(path, data)
}

// cellsKey precedes the cells in an indented envelope. Only a top-level
// key follows a newline and exactly two spaces, so the first match is
// the envelope's own, whatever the parameters hold.
const cellsKey = "\n  \"cells\": "

// marshalEnvelope returns the bytes WriteEnvelopeFile writes.
func marshalEnvelope(e *Envelope) ([]byte, error) {
	var head bytes.Buffer
	h := *e
	h.Cells = nil // written as null, which is right when e.Cells is nil
	enc := json.NewEncoder(&head)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&h); err != nil {
		return nil, err
	}
	if e.Cells == nil {
		return head.Bytes(), nil
	}
	// Each cell is indented twice into one scratch buffer: first to size
	// the file, then to copy it into place.
	var cell bytes.Buffer
	indent := func(c json.RawMessage) ([]byte, error) {
		cell.Reset()
		err := writeRaw(&cell, c, "    ")
		return cell.Bytes(), err
	}
	size := head.Len() + len("[\n  ]")
	for i, c := range e.Cells {
		b, err := indent(c)
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		size += len(",\n    ") + len(b)
	}
	at := bytes.Index(head.Bytes(), []byte(cellsKey)) + len(cellsKey)
	var buf bytes.Buffer
	buf.Grow(size)
	buf.Write(head.Bytes()[:at])
	buf.WriteByte('[')
	for i, c := range e.Cells {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString("\n    ")
		b, _ := indent(c) // the first pass found every cell valid
		buf.Write(b)
	}
	if len(e.Cells) > 0 {
		buf.WriteString("\n  ")
	}
	buf.WriteByte(']')
	buf.Write(head.Bytes()[at+len("null"):])
	return buf.Bytes(), nil
}

// writeRaw appends raw to buf as json.Encoder writes a json.RawMessage:
// null when nil, else validated, stripped of insignificant space and
// HTML-escaped. A non-empty prefix indents it two spaces a level, as
// SetIndent("", "  ") does a value at the depth prefix is the indent of.
func writeRaw(buf *bytes.Buffer, raw json.RawMessage, prefix string) error {
	if raw == nil {
		buf.WriteString("null")
		return nil
	}
	start := buf.Len()
	var err error
	if prefix == "" {
		err = json.Compact(buf, raw)
	} else if err = json.Indent(buf, raw, prefix, "  "); err == nil {
		// Indent keeps the space after a value; the encoder drops it.
		buf.Truncate(start + len(bytes.TrimRight(buf.Bytes()[start:], " \t\r\n")))
	}
	if err != nil {
		buf.Truncate(start)
		return err
	}
	// The characters the encoder escapes can only sit in strings, so
	// escaping after the spacing is the same as escaping during it.
	if out := buf.Bytes()[start:]; bytes.ContainsAny(out, "<>&\u2028\u2029") {
		var esc bytes.Buffer
		json.HTMLEscape(&esc, out)
		buf.Truncate(start)
		buf.Write(esc.Bytes())
	}
	return nil
}

// ReadEnvelopeFile reads and validates one envelope file. Its cells are
// sub-slices of the buffer the file was read into, not copies: a cell
// keeps that buffer alive, and each has its capacity capped at its
// length, so appending to one copies it rather than overwriting the
// next. JSON null cells are read as nil, so missing-cell checks stay
// uniform.
func ReadEnvelopeFile(path string) (*Envelope, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e Envelope
	file := struct {
		*Envelope
		Cells []sharedCell `json:"cells"` // shadows Envelope.Cells
	}{Envelope: &e}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: parsing envelope: %w", path, err)
	}
	if file.Cells != nil {
		e.Cells = make([]json.RawMessage, len(file.Cells))
		for i, c := range file.Cells {
			e.Cells[i] = json.RawMessage(c)
		}
	}
	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &e, nil
}

// sharedCell is a cell that keeps the bytes the decoder hands it. Under
// json.Unmarshal those are a sub-slice of the input, here a file buffer
// nothing else writes to, so keeping them is safe.
type sharedCell json.RawMessage

func (c *sharedCell) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*c = nil
		return nil
	}
	*c = data[:len(data):len(data)]
	return nil
}

// atomicWrite writes data to path via a same-directory temp file,
// fsyncing the file before the rename and the directory after, so the
// path either holds the old content or the complete new content.
func atomicWrite(path string, data []byte) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil { // after a rename the name is gone: nothing to remove
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err = tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss; errors are ignored (not all filesystems support it, and the
// rename itself already ordered the data writes).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
