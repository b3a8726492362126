// Package experiment is the public, registry-driven face of the
// reproduction harness. Every figure of the paper's evaluation and
// every beyond-the-paper scenario registers a Descriptor here; callers
// look experiments up by name, obtain a JSON-(de)serializable parameter
// set (defaults or a named preset such as "paper"), and run them to a
// Result that renders both the historical gnuplot-ready text table and
// stable-keyed JSON.
//
//	d, err := experiment.Get("fig6")
//	p, _ := d.PresetParams("paper")        // or d.Params() for defaults
//	res, err := experiment.Run(d, p)       // validates, then runs
//	res.Table(os.Stdout)                   // byte-identical to the CLI table
//	experiment.WriteJSON(os.Stdout, d.Name, p, res)
//
// Parameters are pointers to plain structs (aliased in this package:
// Fig06Params, CCFairParams, ...), so callers can type-assert and
// tweak fields, or overlay a JSON document on the defaults with
// json.Unmarshal. Define adds user-defined experiments to the same
// registry the CLI enumerates, as what every built-in one is — a cell
// count, a pure per-cell function and a reducer — so they run, shard,
// checkpoint and interrupt like the figures, by name. examples/fairness
// defines a small Figure 6 grid this way and runs it with Run.
//
// The serialized record has a stable, versioned shape:
//
//	{"schema": "tfrc.experiment.record/v1", "experiment": "fig6",
//	 "params": {...}, "result": {...}}
//
// with an optional "interrupted": true inserted by WritePartialJSON
// when a run was cancelled mid-sweep (see RunOptions) — the result is
// then partial, with unreached sweep cells zero-valued, never
// fabricated. The schema string names the envelope layout, not the
// result payload: it changes only if the record's own keys change
// meaning, so downstream tooling can gate on it before parsing.
//
// The fault-injection experiment faultphase takes a FaultSchedule as
// its Faults parameter (its presets blackout and flap are two such
// programs); the schedule itself is JSON all the way down, and decodes
// whole, unknown fields rejected:
//
//	{"seed": 7, "reroute": true, "faults": [
//	  {"at": 25, "link": "rr->rl", "kind": "blackhole"},
//	  {"at": 40, "link": "rr->rl", "kind": "blackhole-off"}]}
//
// Kinds are "down", "up" (field "drain" selects queue-park vs flush),
// "blackhole", "blackhole-off", "delay" (field "delay", seconds),
// "bandwidth" (field "bandwidth", bits/sec), and "impair" (fields
// "reorder", "reorderDelay", "duplicate", "corrupt").
package experiment

import (
	"encoding/json"
	"fmt"
	"io"

	"tfrc/internal/exp"
)

// Core registry types, aliased from the implementation so descriptors
// registered by the figure files and by user code are interchangeable.
type (
	// Descriptor declares one experiment: name, aliases, description,
	// default/preset parameter constructors, and the run function.
	Descriptor = exp.Descriptor
	// Params is an experiment's parameter set: a pointer to a plain
	// JSON-round-trippable struct with self-validation.
	Params = exp.Params
	// Result is what a run produces: Table writes the gnuplot-ready
	// text table; the concrete structs also marshal to JSON.
	Result = exp.Result
	// Grid is the pure-cell decomposition of an experiment: cell count,
	// range runner, and reduce step over raw JSON cells. Every
	// experiment declared with Define has one, so it can be split
	// across processes and machines (see cmd/tfrcsim's shard and merge
	// commands) with byte-identical results.
	Grid = exp.Grid
	// CellRange is a half-open range [Lo, Hi) of grid cell indices.
	CellRange = exp.CellRange
)

// Spec declares an experiment as parameters → N independent cells →
// reduce: P is the plain parameter struct (*P implements Params), C one
// cell's JSON-round-trippable harvest, R the Result. Its Cell function
// is handed the worker's *scenario.Scheduler, rewound before
// every cell: the clock reads zero and nothing is pending. A cell that
// builds its scenario on it (scenario.NewTopology or a preset, then
// scenario.NewBuilder) reuses the worker's previous cell's memory; one
// that runs scenario.Run ignores it.
type Spec[P, C any, R Result] = exp.Spec[P, C, R]

// Define registers the experiment s describes — Run, the shardable
// Grid and the JSON framing at its boundary are all derived from the
// typed Spec. Define is the one way to add an experiment, and RunWith
// (or Run) on its Descriptor the one way to run it; duplicate names
// panic.
func Define[P, C any, R Result, PP interface {
	*P
	Params
}](s Spec[P, C, R]) {
	exp.Define[P, C, R, PP](s)
}

// Get finds an experiment by canonical name or alias ("fig6", "6",
// "ccfair"). Unknown names produce an error that includes the
// closest registered name, when one is plausibly close.
func Get(name string) (Descriptor, error) {
	if d, ok := exp.Lookup(name); ok {
		return d, nil
	}
	if s := exp.Suggest(name); s != "" {
		return Descriptor{}, fmt.Errorf("unknown experiment %q (did you mean %q?)", name, s)
	}
	return Descriptor{}, fmt.Errorf("unknown experiment %q", name)
}

// List returns every registered descriptor: figures first in numeric
// order, then named experiments alphabetically.
func List() []Descriptor { return exp.Experiments() }

// RunOptions is what a run is told beyond its parameters: Workers, the
// number of goroutines executing independent cells (below 2 is
// sequential; results are bit-identical at any value), and Ctx, whose
// cancellation stops the run claiming cells — those in flight finish
// and the run reports ErrInterrupted alongside the partial result. Each
// run keeps the options it was started with, so runs with different
// options may be in flight at once.
type RunOptions = exp.RunOptions

// RunWith validates the parameters and executes the experiment under o.
// All callers (the CLI included) run through here or Run, so no
// experiment ever runs on unvalidated parameters.
func RunWith(d Descriptor, p Params, o RunOptions) (Result, error) {
	return exp.RunExperiment(d, p, o)
}

// Run is RunWith on the process default: never cancelled, and
// sequential until SetParallelism says otherwise.
func Run(d Descriptor, p Params) (Result, error) { return RunWith(d, p, exp.DefaultRunOptions()) }

// SetParallelism sets the default worker count (clamped to ≥ 1) of runs
// started afterwards through the option-less spellings (Run,
// Grid.RunRange) and returns the previous value; a run already in
// flight, and any run given RunOptions, is not touched.
func SetParallelism(n int) int { return exp.SetParallelism(n) }

// ErrInterrupted reports that the run's context was cancelled
// mid-experiment. Run's error wraps it; the accompanying Result, when
// non-nil, is partial (cells that never started hold zero values).
var ErrInterrupted = exp.ErrInterrupted

// RecordSchema identifies the Record envelope layout. It versions the
// envelope keys themselves, not the experiment-specific result shapes;
// it will only change if the meaning of the record keys does.
const RecordSchema = "tfrc.experiment.record/v1"

// Record is the JSON envelope WriteJSON emits: the envelope schema,
// the experiment's name, the exact parameters that ran, and the full
// result. Interrupted marks a partial record from a cancelled run.
type Record struct {
	Schema      string `json:"schema"`
	Experiment  string `json:"experiment"`
	Params      Params `json:"params"`
	Interrupted bool   `json:"interrupted,omitempty"`
	Result      Result `json:"result"`
}

// WriteJSON writes the {schema, experiment, params, result} envelope
// as indented JSON. Keys are stable: encoding/json emits struct fields
// in declaration order, and the result structs are plain data.
func WriteJSON(w io.Writer, name string, p Params, r Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Record{Schema: RecordSchema, Experiment: name, Params: p, Result: r})
}

// WritePartialJSON writes the envelope of an interrupted run: the same
// shape as WriteJSON plus "interrupted": true. A nil result (the run
// died before assembling anything) encodes as result: null.
func WritePartialJSON(w io.Writer, name string, p Params, r Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Record{Schema: RecordSchema, Experiment: name, Params: p, Interrupted: true, Result: r})
}
