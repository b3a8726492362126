package exp

import (
	"encoding/json"
	"fmt"
)

// CellRange addresses the half-open slice [Lo, Hi) of an experiment's
// flattened cell index space. A grid experiment's cells are pure
// functions of (params, index), so any range of them can be computed on
// any machine and the results reassembled by index.
type CellRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len is the number of cells the range addresses.
func (r CellRange) Len() int { return r.Hi - r.Lo }

// String renders the range in half-open interval notation.
func (r CellRange) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// Grid is a grid experiment's pure-cell contract, the seam the
// distributed sweep coordinator (internal/shard, tfrcsim shard/merge)
// runs on. An experiment with a Grid promises that
//
//	Run(o, p) == Reduce(p, the cells Stream(o, p, [0, Cells(p))) hands over)
//
// and that every cell is a pure function of (params, index): computing
// any sub-range on any machine, in any order, at any worker count,
// yields the same per-cell payloads, and Reduce over the reassembled
// full set reproduces the single-machine Result byte-for-byte.
//
// Cell payloads are compact JSON (one object per cell) so they can ride
// in checkpoint files and partial-result envelopes; payload values must
// round-trip exactly through encoding/json (float64, int, string, bool,
// and slices/structs of those do — Go prints floats shortest-exact).
type Grid struct {
	// Cells returns the total flattened cell count for the (validated)
	// parameter set.
	Cells func(Params) (int, error)
	// Stream computes cells [r.Lo, r.Hi) under o and hands each one to
	// sink as it finishes — the absolute index, then the compact JSON
	// payload or the error of marshaling it — on the worker that ran
	// it, so sink is called concurrently, in completion order, and
	// never for a cell that o.Ctx kept from starting. It returns once
	// every call to sink has; its own error is a bad range or params.
	Stream func(o RunOptions, p Params, r CellRange, sink func(idx int, raw json.RawMessage, err error)) error
	// Reduce reassembles the experiment's Result from the full cell set
	// in index order (payloads as produced by Stream).
	Reduce func(Params, []json.RawMessage) (Result, error)
}

// RunRange is Stream on the process defaults, collected: one payload per
// cell, index-aligned with the range. It fails with the error of the
// lowest cell that could not be marshaled, and with ErrInterrupted when
// the default context kept a cell from running.
func (g *Grid) RunRange(p Params, r CellRange) ([]json.RawMessage, error) {
	return g.collect(DefaultRunOptions(), p, r)
}

func (g *Grid) collect(o RunOptions, p Params, r CellRange) ([]json.RawMessage, error) {
	n := max(0, r.Len())
	out, errs := make([]json.RawMessage, n), make([]error, n)
	err := g.Stream(o, p, r, func(idx int, raw json.RawMessage, err error) {
		out[idx-r.Lo], errs[idx-r.Lo] = raw, err
	})
	if err != nil {
		return nil, err
	}
	for i, raw := range out {
		switch {
		case errs[i] != nil:
			return nil, errs[i]
		case raw == nil:
			return nil, fmt.Errorf("cell %d: %w", r.Lo+i, ErrInterrupted)
		}
	}
	return out, nil
}
