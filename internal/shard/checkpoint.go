package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"tfrc/internal/exp"
)

// The checkpoint file is JSON Lines: a header line identifying exactly
// what is being computed, then one line per finished cell in index
// order. A Run publishes it once — header plus the finished prefix,
// through the atomic write-temp, fsync, rename discipline — and from
// then on only appends the newly finished lines and fsyncs: one fsync
// and O(new cells) bytes per flush. A crash mid-append can leave a torn
// last line; that is safe because the loader keeps the longest valid
// prefix (truncated, garbled or out-of-order trailing lines are
// dropped) and the runner recomputes the rest, which is always right
// because cells are pure — and because the first flush of the resumed
// Run republishes the whole file atomically, so nothing is ever
// appended behind garbage. The bytes of a finished file do not depend
// on how many flushes, crashes or workers produced it.
//
//	{"schema":"tfrc.shard.checkpoint/v1","experiment":"fig6","params_hash":"sha256:…","cell_range":{"lo":0,"hi":18}}
//	{"index":0,"cell":{…}}
//	{"index":1,"cell":{…}}

// checkpointHeader is the checkpoint file's first line.
type checkpointHeader struct {
	Schema     string        `json:"schema"`
	Experiment string        `json:"experiment"`
	ParamsHash string        `json:"params_hash"`
	CellRange  exp.CellRange `json:"cell_range"`
}

// checkpointLine is one finished cell.
type checkpointLine struct {
	Index int             `json:"index"`
	Cell  json.RawMessage `json:"cell"`
}

// checkpointWriter flushes a shard's progress to disk. It belongs to
// one Run and to that Run's committer goroutine alone.
type checkpointWriter struct {
	path  string
	hdr   checkpointHeader
	crash *crasher

	done int          // cells the file holds: loaded on resume, then flushed
	f    *os.File     // open for append once the first flush published the file
	buf  bytes.Buffer // encoding scratch, reused across flushes
}

// flush makes the first done cells of the range durable. The first
// flush of a Run publishes header plus prefix atomically, replacing
// whatever an earlier attempt left behind (a torn tail, a header for a
// narrower range); every later one appends only the lines past w.done
// and fsyncs. The crasher's mid-flush, torn-flush, and after-flush
// points bracket the write so tests can SIGKILL the process at every
// interesting instant.
func (w *checkpointWriter) flush(cells []json.RawMessage, done int) error {
	w.buf.Reset()
	enc := json.NewEncoder(&w.buf) // Encode appends the newline
	from := w.done
	if w.f == nil {
		from = 0
		if err := enc.Encode(w.hdr); err != nil {
			return fmt.Errorf("encoding checkpoint header: %w", err)
		}
	}
	for i := from; i < done; i++ {
		if err := enc.Encode(checkpointLine{Index: w.hdr.CellRange.Lo + i, Cell: cells[i]}); err != nil {
			return fmt.Errorf("encoding checkpoint cell %d: %w", w.hdr.CellRange.Lo+i, err)
		}
	}
	data := w.buf.Bytes()
	if w.crash.firesAt(pointTornFlush) {
		// Simulate a torn write: make the flush visible truncated
		// mid-line, then die. The loader must drop the torn tail.
		w.write(data[:len(data)-len(data)/4])
		w.crash.die()
	}
	w.crash.at(pointMidFlush) // before the write becomes visible
	if err := w.write(data); err != nil {
		return fmt.Errorf("flushing checkpoint: %w", err)
	}
	w.crash.at(pointAfterFlush) // after the write became durable
	w.done = done
	return nil
}

// write publishes data as the whole file when nothing is open yet and
// leaves the file open for append; after that it appends and fsyncs.
func (w *checkpointWriter) write(data []byte) (err error) {
	if w.f == nil {
		if err = atomicWrite(w.path, data); err == nil {
			w.f, err = os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0)
		}
		return err
	}
	if _, err = w.f.Write(data); err == nil {
		err = w.f.Sync()
	}
	return err
}

// close releases the append handle, if a flush opened one; a nil
// writer (no checkpoint) closes trivially. Every flush already fsynced,
// so nothing is pending.
func (w *checkpointWriter) close() error {
	if w == nil || w.f == nil {
		return nil
	}
	return w.f.Close()
}

// loadCheckpoint reads a checkpoint, validates its identity against the
// expected header, and returns the contiguous prefix of finished cells
// (cells[i] holds cell want.CellRange.Lo+i). Torn or out-of-order
// trailing lines are dropped; a mismatched header is an error because
// resuming someone else's checkpoint would corrupt the sweep.
func loadCheckpoint(path string, want checkpointHeader) (cells []json.RawMessage, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26) // cells can be large (trace series)
	if !sc.Scan() {
		// Empty or unreadable header: treat as no progress.
		return nil, nil
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, nil // torn before the header finished: no progress
	}
	if hdr.Schema != want.Schema {
		return nil, fmt.Errorf("%s: checkpoint schema %q does not match %q", path, hdr.Schema, want.Schema)
	}
	if hdr.Experiment != want.Experiment {
		return nil, fmt.Errorf("%s: checkpoint is for experiment %q, not %q", path, hdr.Experiment, want.Experiment)
	}
	if hdr.ParamsHash != want.ParamsHash {
		return nil, fmt.Errorf("%s: checkpoint params hash %s does not match %s — the parameters changed; delete the checkpoint or rerun with the original parameters",
			path, hdr.ParamsHash, want.ParamsHash)
	}
	// A checkpoint for a same-Lo sub-range is reusable: cells are pure
	// functions of their absolute index, so a prefix computed for a
	// narrower range is byte-identical under the wider one (this is how
	// a run interrupted partway resumes into the full shard). Any other
	// range means the shard addressing changed.
	if hdr.CellRange.Lo != want.CellRange.Lo || hdr.CellRange.Hi > want.CellRange.Hi {
		return nil, fmt.Errorf("%s: checkpoint covers cells %s, not %s — shard addressing changed; delete the checkpoint or rerun with the original shard split",
			path, hdr.CellRange, want.CellRange)
	}

	next := want.CellRange.Lo
	for sc.Scan() && next < want.CellRange.Hi {
		var line checkpointLine
		// A null cell decodes to the bytes "null", not to nil; like a
		// missing one it is not a finished cell (ReadEnvelopeFile agrees).
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Cell == nil || bytes.Equal(line.Cell, []byte("null")) {
			break // torn tail: keep the valid prefix
		}
		if line.Index != next {
			break // out-of-order tail: keep the contiguous prefix
		}
		cells = append(cells, line.Cell)
		next++
	}
	// Scanner errors (oversize line etc.) also just end the prefix.
	return cells, nil
}

// Deterministic crash injection, test-only. The environment variable
// TFRCSIM_SHARD_CRASH_POINT names a checkpoint-flush instant and an
// occurrence count, "point:n": the process SIGKILLs itself at the n-th
// (1-based) occurrence of that point. Points:
//
//	after-flush — the flush completed (renamed in, or appended and
//	              fsynced); the checkpoint holds the finished prefix.
//	mid-flush   — the new flush is encoded but not yet written; the
//	              previous checkpoint is still in place.
//	torn-flush  — a truncated flush was made visible (simulating a
//	              torn write), exercising the tolerant loader.
//
// The first occurrence of a point in a process is the atomic publish,
// every later one an append.
//
// TFRCSIM_SHARD_CRASH_ONCE="shard:path" arms an after-flush crash for
// the matching shard index only, guarded by a sentinel file created
// just before dying, so the supervisor's restart of the same shard runs
// clean. Both hooks are inert unless the variables are set, and the
// variables are only set by tests and the CI shard job.
const (
	crashPointEnv = "TFRCSIM_SHARD_CRASH_POINT"
	crashOnceEnv  = "TFRCSIM_SHARD_CRASH_ONCE"

	pointAfterFlush = "after-flush"
	pointMidFlush   = "mid-flush"
	pointTornFlush  = "torn-flush"
)

// crasher holds the armed crash point. The zero/nil crasher never
// fires, so production paths pay one nil check per flush.
type crasher struct {
	point    string
	n        int    // remaining occurrences before firing
	sentinel string // crash-once guard file; "" for unconditional
}

// newCrasher arms a crasher for this shard from the environment;
// returns nil (inert) when no crash is configured for it.
func newCrasher(shardIndex int) *crasher {
	if v := os.Getenv(crashPointEnv); v != "" {
		point, nstr, ok := strings.Cut(v, ":")
		n := 1
		if ok {
			if parsed, err := strconv.Atoi(nstr); err == nil && parsed > 0 {
				n = parsed
			}
		}
		return &crasher{point: point, n: n}
	}
	if v := os.Getenv(crashOnceEnv); v != "" {
		idxStr, sentinel, ok := strings.Cut(v, ":")
		if !ok || sentinel == "" {
			return nil
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil || idx != shardIndex {
			return nil
		}
		if _, err := os.Stat(sentinel); err == nil {
			return nil // already crashed once
		}
		return &crasher{point: pointAfterFlush, n: 1, sentinel: sentinel}
	}
	return nil
}

// firesAt registers one occurrence of point and reports whether the
// countdown reached it; a true return means the caller must do its
// pre-crash staging (e.g. publish a torn file) and then call die.
func (c *crasher) firesAt(point string) bool {
	if c == nil || c.point != point {
		return false
	}
	c.n--
	return c.n <= 0
}

// at registers one occurrence of point, dying if the crasher is armed
// for it and the countdown reached it.
func (c *crasher) at(point string) {
	if c.firesAt(point) {
		c.die()
	}
}

// die marks the crash-once sentinel durably (so the restarted shard
// does not crash again) and SIGKILLs the process.
func (c *crasher) die() {
	if c.sentinel != "" {
		if f, err := os.Create(c.sentinel); err == nil {
			f.Sync()
			f.Close()
			syncDir(filepath.Dir(c.sentinel))
		}
	}
	crashSelf()
}
