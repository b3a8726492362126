package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"tfrc/internal/exp"
)

// Merge validates a set of shard envelopes against each other and
// reassembles their cells into one envelope spanning the experiment's
// full cell space. All envelopes must agree on schema, experiment, and
// params hash; no cell may be computed by more than one envelope
// (ranges may overlap only where all but one hold nil, so a partial
// envelope's holes can be backfilled by a late shard). Full coverage
// yields Complete=true, ready for Reduce. With allowPartial, gaps (and
// nil cells inside the inputs) produce a well-formed Complete=false
// envelope whose Missing field enumerates every uncovered range;
// without it, gaps are an error.
func Merge(envs []*Envelope, allowPartial bool) (*Envelope, error) {
	if len(envs) == 0 {
		return nil, fmt.Errorf("nothing to merge")
	}
	first := envs[0]
	for _, e := range envs {
		if err := e.Validate(); err != nil {
			return nil, err
		}
		if e.Experiment != first.Experiment {
			return nil, fmt.Errorf("cannot merge shards of different experiments: %q vs %q",
				first.Experiment, e.Experiment)
		}
		if e.ParamsHash != first.ParamsHash {
			return nil, fmt.Errorf("params hash mismatch: shard %s ran %s but shard %s ran %s — the shards were produced from different parameter sets and their cells cannot be combined; rerun the divergent shard with the original parameters",
				first.CellRange, first.ParamsHash, e.CellRange, e.ParamsHash)
		}
		if !compactEqual(e.Params, first.Params) {
			return nil, fmt.Errorf("params mismatch between shards %s and %s despite equal hashes (corrupt envelope?)",
				first.CellRange, e.CellRange)
		}
	}

	desc, params, err := decodeParams(first)
	if err != nil {
		return nil, err
	}
	total, err := desc.Grid.Cells(params)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", desc.Name, err)
	}

	// Bounds check, then reassemble with cell-level overlap detection:
	// ranges may overlap as long as at most one envelope actually
	// computed each cell, which is what lets a partial envelope (nil
	// holes spanning the full grid) be backfilled by a late shard.
	// Envelopes are visited in Lo order so messages name the offending
	// pair deterministically.
	sorted := make([]*Envelope, len(envs))
	copy(sorted, envs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].CellRange.Lo < sorted[j].CellRange.Lo })
	merged := make([]json.RawMessage, total)
	owner := make([]*Envelope, total)
	for _, e := range sorted {
		if e.CellRange.Hi > total {
			return nil, fmt.Errorf("shard range %s exceeds the experiment's %d cells — shard addressing does not match these parameters",
				e.CellRange, total)
		}
		for i, cell := range e.Cells {
			if cell == nil {
				continue
			}
			idx := e.CellRange.Lo + i
			if prev := owner[idx]; prev != nil {
				return nil, fmt.Errorf("shard ranges %s and %s overlap at cell %d — each cell must be computed by exactly one shard; check the -shard i/n arguments the shards ran with",
					prev.CellRange, e.CellRange, idx)
			}
			merged[idx] = cell
			owner[idx] = e
		}
	}
	missing := missingRanges(merged, 0)
	if len(missing) > 0 && !allowPartial {
		return nil, fmt.Errorf("merge does not cover the full grid: cells %s missing of %d total — run the missing shards or pass -allow-partial for a partial envelope",
			rangesString(missing), total)
	}

	return &Envelope{
		Schema:     EnvelopeSchema,
		Experiment: first.Experiment,
		ParamsHash: first.ParamsHash,
		Params:     first.Params,
		CellRange:  exp.CellRange{Lo: 0, Hi: total},
		Cells:      merged,
		Complete:   len(missing) == 0,
		Missing:    missing,
	}, nil
}

// Reduce re-runs the experiment's reduce step over a complete merged
// envelope, reproducing the single-machine Result byte-for-byte, and
// returns the decoded parameters alongside so callers can emit the
// standard {experiment, params, result} record.
func Reduce(e *Envelope) (exp.Result, exp.Params, error) {
	if err := e.Validate(); err != nil {
		return nil, nil, err
	}
	if !e.Complete {
		return nil, nil, fmt.Errorf("%s: cannot reduce a partial envelope (cells %s missing)",
			e.Experiment, rangesString(e.Missing))
	}
	desc, params, err := decodeParams(e)
	if err != nil {
		return nil, nil, err
	}
	res, err := desc.Grid.Reduce(params, e.Cells)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", e.Experiment, err)
	}
	return res, params, nil
}

// decodeParams looks the envelope's experiment up and overlays its
// exact parameter JSON on a fresh default set, verifying the hash so a
// tampered or mislabeled envelope cannot smuggle foreign cells in.
func decodeParams(e *Envelope) (exp.Descriptor, exp.Params, error) {
	desc, ok := exp.Lookup(e.Experiment)
	if !ok {
		return exp.Descriptor{}, nil, fmt.Errorf("envelope names unknown experiment %q", e.Experiment)
	}
	params := desc.Params()
	if err := json.Unmarshal(e.Params, params); err != nil {
		return exp.Descriptor{}, nil, fmt.Errorf("%s: decoding envelope params: %w", e.Experiment, err)
	}
	if err := params.Validate(); err != nil {
		return exp.Descriptor{}, nil, fmt.Errorf("%s: envelope params invalid: %w", e.Experiment, err)
	}
	hash, err := ParamsHash(e.Experiment, e.Params)
	if err != nil {
		return exp.Descriptor{}, nil, err
	}
	if hash != e.ParamsHash {
		return exp.Descriptor{}, nil, fmt.Errorf("%s: envelope params hash %s does not match its own params (%s) — the file was modified after it was written",
			e.Experiment, e.ParamsHash, hash)
	}
	return desc, params, nil
}

// compactEqual compares two JSON documents byte-wise after compaction,
// so formatting differences between writers don't count.
func compactEqual(a, b json.RawMessage) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// rangesString renders missing ranges compactly: "[3,5) [9,12)".
func rangesString(rs []exp.CellRange) string {
	var buf bytes.Buffer
	for i, r := range rs {
		if i > 0 {
			buf.WriteByte(' ')
		}
		buf.WriteString(r.String())
	}
	return buf.String()
}
