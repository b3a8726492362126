package exp

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Params is one experiment's parameter set: a pointer to a plain struct
// whose exported fields round-trip through encoding/json, with
// self-validation so malformed parameter files fail loudly instead of
// silently producing empty tables.
type Params interface {
	Validate() error
}

// Result is what an experiment run produces. Table writes the
// gnuplot-ready text table (byte-identical to the historical Print
// output); the concrete result structs additionally marshal to JSON via
// encoding/json with stable keys.
type Result interface {
	Table(w io.Writer)
}

// Descriptor is one registered experiment, as Define derives it from a
// Spec: the paper's figures, the beyond-the-paper scenarios and any
// experiment user code defines.
type Descriptor struct {
	// Name is the canonical registry key ("fig6", "ccfair").
	Name string
	// Aliases are alternate lookup keys — panels the experiment
	// includes ("fig10" for fig9) and bare figure numbers ("6").
	Aliases []string
	// Description is the one-line text shown by tfrcsim list.
	Description string
	// Params returns a fresh default parameter set. It must return a
	// pointer so JSON overlays (-params, -seed, -seeds) mutate it in place.
	Params func() Params
	// Presets are named alternate parameter sets; "paper" selects the
	// paper's full-scale setup where one exists.
	Presets map[string]func() Params
	// Run executes the experiment under the given options. Callers
	// should go through RunExperiment, which validates first.
	Run func(RunOptions, Params) (Result, error)
	// Grid exposes the experiment's pure-cell structure for distributed
	// execution (cell count, range execution, reduce); the shard/merge
	// coordinator runs on this contract. Every experiment has one (a
	// single simulation is a grid of one cell) and Define derives it.
	Grid *Grid
}

// PresetParams returns a fresh parameter set for the named preset; ""
// or "default" mean the defaults. Unknown presets report an error
// listing what exists.
func (d Descriptor) PresetParams(preset string) (Params, error) {
	if preset == "" || preset == "default" {
		return d.Params(), nil
	}
	if f, ok := d.Presets[preset]; ok {
		return f(), nil
	}
	names := make([]string, 0, len(d.Presets)+1)
	names = append(names, "default")
	for n := range d.Presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("experiment %q has no preset %q (have %s)",
		d.Name, preset, strings.Join(names, ", "))
}

// registry maps canonical names and aliases to descriptors; Define is
// its one writer (re-exported by package experiment).
var (
	registry   = map[string]Descriptor{}
	registered []string // canonical names in registration order
)

// register adds an experiment to the registry. Registering a name or
// alias twice panics: the registry is program-wide configuration, and a
// collision is a programming error.
func register(d Descriptor) {
	if d.Name == "" {
		panic("exp: an experiment needs a Name")
	}
	keys := append([]string{d.Name}, d.Aliases...)
	for _, k := range keys {
		if _, dup := registry[k]; dup {
			panic(fmt.Sprintf("exp: experiment %q already registered", k))
		}
	}
	for _, k := range keys {
		registry[k] = d
	}
	registered = append(registered, d.Name)
}

// Lookup finds an experiment by canonical name or alias.
func Lookup(name string) (Descriptor, bool) {
	d, ok := registry[name]
	return d, ok
}

// Experiments returns every registered descriptor, figures first in
// numeric order, then the named experiments alphabetically.
func Experiments() []Descriptor {
	out := make([]Descriptor, 0, len(registered))
	for _, name := range registered {
		out = append(out, registry[name])
	}
	sort.SliceStable(out, func(i, j int) bool {
		fi, oki := figNumber(out[i].Name)
		fj, okj := figNumber(out[j].Name)
		switch {
		case oki && okj:
			return fi < fj
		case oki:
			return true
		case okj:
			return false
		default:
			return out[i].Name < out[j].Name
		}
	})
	return out
}

func figNumber(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "fig")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	return n, err == nil
}

// Suggest returns the registered name closest to the misspelled one, or
// "" when nothing is plausibly close. Distance ties break toward the
// shorter, lexicographically first key, so the result is deterministic.
func Suggest(name string) string {
	keys := make([]string, 0, len(registry))
	for key := range registry {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(keys[i]) != len(keys[j]) {
			return len(keys[i]) < len(keys[j])
		}
		return keys[i] < keys[j]
	})
	best, bestDist := "", len(name)/2+2 // beyond this it's not a typo
	for _, key := range keys {
		if d := editDistance(name, key); d < bestDist {
			best, bestDist = key, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between two short names.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// ErrInterrupted reports that the run's context (RunOptions.Ctx) was
// cancelled mid-experiment. The accompanying Result, when non-nil, is a
// partial one: cells that never started hold zero values.
var ErrInterrupted = errors.New("interrupted")

// RunExperiment validates the parameters and executes the experiment
// under o. This is the one entry point the CLI and the public experiment
// package use, so no experiment can run on unvalidated parameters. When
// o.Ctx is cancelled mid-run, the error wraps ErrInterrupted and the
// result carries whatever the experiment could assemble from the cells
// that ran; a panic while interrupted (aggregation tripping over the
// zero values of cells that never started) is converted to the same
// error with a nil result.
func RunExperiment(d Descriptor, p Params, o RunOptions) (res Result, err error) {
	if verr := p.Validate(); verr != nil {
		return nil, fmt.Errorf("%s: invalid parameters: %w", d.Name, verr)
	}
	defer func() {
		if r := recover(); r != nil {
			if o.interrupted() {
				res, err = nil, fmt.Errorf("%s: %w", d.Name, ErrInterrupted)
				return
			}
			panic(r)
		}
	}()
	res, err = d.Run(o, p)
	if err == nil && o.interrupted() {
		err = fmt.Errorf("%s: %w", d.Name, ErrInterrupted)
	}
	return res, err
}
