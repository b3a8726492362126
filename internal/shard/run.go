package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"

	"tfrc/internal/exp"
)

// isNotExist reports a missing checkpoint file, which Resume treats as
// a fresh start.
func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// Run is RunWith on the process default (exp.DefaultRunOptions): the
// SetParallelism worker count, never cancelled.
func Run(spec RunSpec) (*Envelope, error) { return RunWith(spec, exp.DefaultRunOptions()) }

// RunSpec is one shard-run request: which experiment, the exact
// resolved parameters, and the shard addressing.
type RunSpec struct {
	// Desc is the experiment; it must expose a Grid.
	Desc exp.Descriptor
	// Params is the fully resolved, validated parameter set.
	Params exp.Params
	// Shard addresses this process's slice and configures
	// checkpointing.
	Shard ShardParams
	// Range, when non-nil, overrides the Index/Count split with an
	// explicit cell range (the CLI's -cells lo:hi).
	Range *exp.CellRange
}

// RunWith computes the spec's cell range on o.Workers workers,
// checkpointing as configured, and returns the shard's complete
// envelope. With Resume set, finished cells are loaded from the
// checkpoint and only the missing tail is recomputed; because cells are
// pure functions of (params, index), the returned envelope — and the
// finished checkpoint file — is byte-identical to an uninterrupted
// run's no matter how many workers computed it or how many crash/resume
// cycles preceded it.
//
// When o.Ctx is cancelled, no further cell starts; RunWith flushes the
// prefix of the cells that did run, those in flight at the cancel
// included, and returns ErrInterrupted, so a resume continues from
// there. When a cell or a flush fails it stops the same way and reports
// the failing cell with the lowest index. No goroutine outlives RunWith.
func RunWith(spec RunSpec, o exp.RunOptions) (*Envelope, error) {
	if err := spec.Params.Validate(); err != nil {
		return nil, fmt.Errorf("%s: invalid parameters: %w", spec.Desc.Name, err)
	}
	if err := spec.Shard.Validate(); err != nil {
		return nil, fmt.Errorf("%s: invalid shard: %w", spec.Desc.Name, err)
	}
	grid := spec.Desc.Grid
	total, err := grid.Cells(spec.Params)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Desc.Name, err)
	}
	paramsJSON, err := json.Marshal(spec.Params)
	if err != nil {
		return nil, fmt.Errorf("%s: marshaling params: %w", spec.Desc.Name, err)
	}
	hash, err := ParamsHash(spec.Desc.Name, paramsJSON)
	if err != nil {
		return nil, err
	}

	rng := SplitRange(total, spec.Shard.Index, spec.Shard.Count)
	if spec.Range != nil {
		rng = *spec.Range
	}
	if rng.Lo < 0 || rng.Hi > total || rng.Lo > rng.Hi {
		return nil, fmt.Errorf("%s: cell range %s out of bounds for %d cells", spec.Desc.Name, rng, total)
	}

	cells := make([]json.RawMessage, rng.Len())
	done := 0 // cells[:done] is the contiguous finished prefix
	var ckpt *checkpointWriter
	if spec.Shard.Checkpoint != "" {
		ckpt = &checkpointWriter{
			path: spec.Shard.Checkpoint,
			hdr: checkpointHeader{
				Schema:     CheckpointSchema,
				Experiment: spec.Desc.Name,
				ParamsHash: hash,
				CellRange:  rng,
			},
			crash: newCrasher(spec.Shard.Index),
		}
		if spec.Shard.Resume {
			loaded, err := loadCheckpoint(ckpt.path, ckpt.hdr)
			if err != nil && !isNotExist(err) {
				return nil, err
			}
			done = copy(cells, loaded)
			ckpt.done = done
		}
	}

	err = computeMissing(spec, o, rng, cells, done, ckpt)
	if cerr := ckpt.close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing checkpoint: %w", cerr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Desc.Name, err)
	}
	return &Envelope{
		Schema:     EnvelopeSchema,
		Experiment: spec.Desc.Name,
		ParamsHash: hash,
		Params:     paramsJSON,
		CellRange:  rng,
		Cells:      cells,
		Complete:   rng.Lo == 0 && rng.Hi == total,
	}, nil
}

// cellResult is what a worker hands the committer for one cell it ran:
// its offset in the shard's range and the payload or the error.
type cellResult struct {
	i   int
	raw json.RawMessage
	err error
}

// computeMissing fills cells[done:], cells[i] being cell rng.Lo+i. The
// grid streams the missing cells on o.Workers workers; the calling
// goroutine is the only committer: it slots each payload, advances the
// contiguous finished prefix and flushes that prefix once it is
// FlushEvery cells ahead of the file. So no worker waits on a flush, and
// completion order never reaches the output. On an error the committer
// cancels the stream's context — as an interrupt does the caller's — and,
// once the cells in flight are in, flushes the prefix that did finish.
func computeMissing(spec RunSpec, o exp.RunOptions, rng exp.CellRange, cells []json.RawMessage, done int, ckpt *checkpointWriter) error {
	n := len(cells)
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	var stop context.CancelFunc // the committer saw an error: start no more cells
	o.Ctx, stop = context.WithCancel(o.Ctx)
	defer stop()
	// One slot per missing cell, the most that can be sent: a worker
	// never blocks, whatever the committer is doing.
	results := make(chan cellResult, n-done)
	var streamErr error
	go func() {
		defer close(results)
		streamErr = spec.Desc.Grid.Stream(o, spec.Params, exp.CellRange{Lo: rng.Lo + done, Hi: rng.Hi},
			func(idx int, raw json.RawMessage, err error) { results <- cellResult{idx - rng.Lo, raw, err} })
	}()

	var cellErr, flushErr error
	failedAt := n
	// flush persists the prefix once it is due cells ahead of the file.
	flush := func(due int) {
		if ckpt != nil && flushErr == nil && done-ckpt.done >= due {
			if flushErr = ckpt.flush(cells, done); flushErr != nil {
				stop()
			}
		}
	}
	for r := range results {
		if r.err != nil {
			if r.i < failedAt {
				failedAt, cellErr = r.i, fmt.Errorf("cell %d: %w", rng.Lo+r.i, r.err)
			}
		} else {
			cells[r.i] = r.raw
			for done < n && cells[done] != nil {
				done++
			}
			flush(spec.Shard.flushEvery())
		}
		if done == failedAt {
			// Cells are claimed in order, so every cell below a failing
			// one is in flight or in by now. Stopping only once they are
			// all in makes the reported error independent of completion
			// order: a stop never keeps a lower cell from starting.
			stop()
		}
	}
	// The stream has returned. What the cadence left over is the end of
	// the range, or the cells that ran before an interrupt or an error.
	flush(1)
	switch {
	case streamErr != nil:
		return streamErr
	case cellErr != nil:
		return cellErr
	case flushErr != nil:
		return flushErr
	case done < n: // no error, yet a cell is missing: the context kept it from starting
		return exp.ErrInterrupted
	}
	return nil
}

// salvageEnvelope builds a partial envelope from whatever a dead
// shard's checkpoint durably recorded: finished cells in place, nil for
// the rest, Missing enumerating the holes. Used by the supervisor when
// a shard exhausts its attempt budget.
func salvageEnvelope(desc exp.Descriptor, paramsJSON []byte, hash string,
	rng exp.CellRange, checkpoint string) *Envelope {
	cells := make([]json.RawMessage, rng.Len())
	if checkpoint != "" {
		hdr := checkpointHeader{
			Schema:     CheckpointSchema,
			Experiment: desc.Name,
			ParamsHash: hash,
			CellRange:  rng,
		}
		if loaded, err := loadCheckpoint(checkpoint, hdr); err == nil {
			copy(cells, loaded)
		}
	}
	return &Envelope{
		Schema:     EnvelopeSchema,
		Experiment: desc.Name,
		ParamsHash: hash,
		Params:     paramsJSON,
		CellRange:  rng,
		Cells:      cells,
		Complete:   false,
		Missing:    missingRanges(cells, rng.Lo),
	}
}
