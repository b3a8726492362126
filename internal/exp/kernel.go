package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"tfrc/internal/sim"
	"tfrc/internal/stats"
)

// Spec declares an experiment as what every experiment in this package
// is: parameters → N independent cells → reduce. P is the plain
// parameter struct (*P implements Params), C one cell's harvest, R the
// Result. Define derives the rest — the registry Descriptor and the
// JSON-framed Grid the shard coordinator drives — so an experiment file
// holds only what is particular to it.
type Spec[P, C any, R Result] struct {
	Name        string
	Aliases     []string
	Description string

	// Default returns the default parameters; Presets are named
	// alternatives ("paper").
	Default func() P
	Presets map[string]func() P

	// Cells is the flattened cell count for validated parameters.
	Cells func(p *P) int
	// Cell computes the cell at absolute index idx on the worker's
	// pinned scheduler, rewound by the executor: its clock reads zero,
	// nothing is pending, and its arenas hold the worker's previous cell
	// as stock to build from. It must be a pure function of (*p, idx) —
	// any sub-range of cells computed anywhere, in any order, yields the
	// same values — and C must survive encoding/json exactly: exported
	// fields, no NaN or Inf, marshalers that round-trip.
	Cell func(sched *sim.Scheduler, p *P, idx int) C
	// Reduce assembles the Result from all cells in index order. Cells
	// an interrupted run never started arrive as zero values.
	Reduce func(p *P, cells []C) R
}

// Define registers the experiment s describes; RunExperiment runs it.
func Define[P, C any, R Result, PP interface {
	*P
	Params
}](s Spec[P, C, R]) {
	register(describe[P, C, R, PP](s))
}

// describe builds the Descriptor of s without registering it.
func describe[P, C any, R Result, PP interface {
	*P
	Params
}](s Spec[P, C, R]) Descriptor {
	cast := func(p Params) (*P, error) {
		tp, ok := p.(PP)
		if !ok {
			return nil, fmt.Errorf("wrong parameter type %T (want %T)", p, PP(nil))
		}
		return tp, nil
	}
	fresh := func(def func() P) func() Params {
		return func() Params {
			p := def()
			return PP(&p)
		}
	}
	cells, cell, reduce := s.Cells, s.Cell, s.Reduce
	d := Descriptor{
		Name:        s.Name,
		Aliases:     s.Aliases,
		Description: s.Description,
		Params:      fresh(s.Default),
		Run: func(o RunOptions, p Params) (Result, error) {
			tp, err := cast(p)
			if err != nil {
				return nil, err
			}
			out := make([]C, cells(tp))
			runCells(o, len(out), func(sched *sim.Scheduler, i int) { out[i] = cell(sched, tp, i) })
			return reduce(tp, out), nil
		},
		Grid: &Grid{
			Cells: func(p Params) (int, error) {
				tp, err := cast(p)
				if err != nil {
					return 0, err
				}
				return cells(tp), nil
			},
			Stream: func(o RunOptions, p Params, r CellRange, sink func(int, json.RawMessage, error)) error {
				tp, err := cast(p)
				if err != nil {
					return err
				}
				if n := cells(tp); r.Lo < 0 || r.Hi > n || r.Lo > r.Hi {
					return fmt.Errorf("cell range %s out of bounds for %d cells", r, n)
				}
				runCells(o, r.Len(), func(sched *sim.Scheduler, i int) {
					raw, err := json.Marshal(cell(sched, tp, r.Lo+i))
					if err != nil {
						err = fmt.Errorf("marshaling cell %d: %w", r.Lo+i, err)
					}
					sink(r.Lo+i, raw, err)
				})
				return nil
			},
			Reduce: func(p Params, raw []json.RawMessage) (Result, error) {
				tp, err := cast(p)
				if err != nil {
					return nil, err
				}
				if n := cells(tp); len(raw) != n {
					return nil, fmt.Errorf("reduce needs all %d cells, got %d", n, len(raw))
				}
				typed := make([]C, len(raw))
				if err := decodeCells(raw, typed); err != nil {
					return nil, err
				}
				return reduce(tp, typed), nil
			},
		},
	}
	if len(s.Presets) > 0 {
		d.Presets = make(map[string]func() Params, len(s.Presets))
		for name, def := range s.Presets {
			d.Presets[name] = fresh(def)
		}
	}
	return d
}

// decodeCells decodes raw[i] into cells[i] with one json.Decoder, so
// the decoder's state and buffer serve every cell instead of being built
// per cell as json.Unmarshal builds them. A raw cell must hold exactly one
// JSON value: where the decoder fails or reads past a cell's end, that
// cell alone goes through json.Unmarshal, which names the error.
func decodeCells[C any](raw []json.RawMessage, cells []C) error {
	dec := json.NewDecoder(&cellReader{cells: raw})
	start := int64(0) // cell i's offset in the stream
	for i, r := range raw {
		err := dec.Decode(&cells[i])
		end := dec.InputOffset() - start // where the value ended, inside r if r is one value
		if err != nil || end > int64(len(r)) || len(bytes.TrimLeft(r[end:], " \t\r\n")) > 0 {
			if err = json.Unmarshal(r, &cells[i]); err == nil {
				err = errors.New("cell is not one JSON value")
			}
			return fmt.Errorf("decoding cell %d: %w", i, err)
		}
		start += int64(len(r)) + 1
	}
	return nil
}

// cellReader streams raw cells back to back, a newline after each: two
// numbers would otherwise read as one.
type cellReader struct {
	cells []json.RawMessage
	off   int // read position in cells[0]; len(cells[0]) is its newline
}

func (r *cellReader) Read(p []byte) (n int, err error) {
	for n < len(p) && len(r.cells) > 0 {
		if c := r.cells[0]; r.off < len(c) {
			k := copy(p[n:], c[r.off:])
			r.off += k
			n += k
			continue
		}
		p[n] = '\n'
		n++
		r.cells, r.off = r.cells[1:], 0
	}
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

// single is the Spec of an experiment that is one simulation: a grid
// of one cell, so it still shards, checkpoints and interrupts like the
// rest.
func single[P any, R Result](name, description string, aliases []string, def func() P, run func(sched *sim.Scheduler, p *P) R) Spec[P, R, R] {
	return Spec[P, R, R]{
		Name:        name,
		Aliases:     aliases,
		Description: description,
		Default:     def,
		Cells:       func(*P) int { return 1 },
		Cell:        func(sched *sim.Scheduler, p *P, _ int) R { return run(sched, p) },
		Reduce:      func(_ *P, cells []R) R { return cells[0] },
	}
}

// replicas is the per-grid-point replicate count of a Seeds parameter:
// 0 and 1 both mean a single run.
func replicas(seeds int) int {
	if seeds < 1 {
		return 1
	}
	return seeds
}

// replicaSeed derives replicate rep's seed. Replicate 0 runs at the
// base seed itself, so single-seed output does not depend on Seeds.
func replicaSeed(base int64, rep int) int64 { return base + int64(rep)*6151 }

// meanCI reduces one grid point's replicates to the mean of f and its
// 90% confidence half-width, summing in replicate order.
func meanCI[C any](group []C, f func(*C) float64) (mean, ci float64) {
	xs := make([]float64, len(group))
	for i := range group {
		xs[i] = f(&group[i])
	}
	return stats.MeanCI90(xs)
}

// reducePoints collapses each grid point's replicates — adjacent runs
// of replicas(seeds) cells — to one cell: the point's first replicate,
// which merge overwrites with means and CIs when there are several.
func reducePoints[C any](cells []C, seeds int, merge func(point *C, group []C)) []C {
	n := replicas(seeds)
	var out []C
	for lo := 0; lo+n <= len(cells); lo += n {
		group := cells[lo : lo+n]
		out = append(out, group[0])
		if n > 1 {
			// In place: a local handed to merge would escape, one
			// allocation per point.
			merge(&out[len(out)-1], group)
		}
	}
	return out
}

// meanCICurve is meanCI pointwise over a per-replicate curve of n
// points (one per measurement timescale).
func meanCICurve[C any](group []C, n int, curve func(*C) []float64) []MeanCI {
	out := make([]MeanCI, n)
	for i := range out {
		out[i].Mean, out[i].CI = meanCI(group, func(c *C) float64 { return curve(c)[i] })
	}
	return out
}

// unravel decodes a flattened cell index into one coordinate per axis,
// the last axis varying fastest — grids put the replicate there, so a
// grid point's replicates are adjacent cells.
func unravel(idx int, dims ...int) (at [4]int) {
	for k := len(dims) - 1; k >= 0; k-- {
		at[k], idx = idx%dims[k], idx/dims[k]
	}
	return at
}

// timescaleCurves walks the measurement-timescale ladder of figures 9-13
// and 16-17 for a pair of series binned at base seconds: at each
// timescale both are re-binned to the nearest whole multiple of base and
// yield their equivalence ratio and each one's CoV.
func timescaleCurves(a, b []float64, base float64, timescales []float64) (eq, covA, covB []float64) {
	eq = make([]float64, len(timescales))
	covA = make([]float64, len(timescales))
	covB = make([]float64, len(timescales))
	for i, ts := range timescales {
		k := max(1, int(ts/base+0.5))
		ra, rb := stats.Rebin(a, k), stats.Rebin(b, k)
		eq[i] = stats.EquivalenceRatio(ra, rb)
		covA[i], covB[i] = stats.CoV(ra), stats.CoV(rb)
	}
	return eq, covA, covB
}
