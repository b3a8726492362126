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
//	Run(p) == Reduce(p, RunRange(p, [0, Cells(p))))
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
	// RunRange computes cells [r.Lo, r.Hi) on the sweep worker pool and
	// returns one compact JSON payload per cell, index-aligned with the
	// range.
	RunRange func(Params, CellRange) ([]json.RawMessage, error)
	// Reduce reassembles the experiment's Result from the full cell set
	// in index order (payloads as produced by RunRange).
	Reduce func(Params, []json.RawMessage) (Result, error)
}
