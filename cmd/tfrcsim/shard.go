package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"

	"tfrc/experiment"
	"tfrc/internal/shard"
)

// Exit codes shared by every command: 0 success, 1 runtime failure,
// 2 usage error, 3 degraded success (a well-formed partial envelope was
// produced but cells are permanently missing).
const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
	exitPartial = 3
)

// fail reports err on stderr the way every command does and returns the
// exit code to leave with.
func fail(code int, err error) int {
	fmt.Fprintf(os.Stderr, "tfrcsim: %v\n", err)
	return code
}

// checkFormat rejects a -format value that is neither table nor json.
func checkFormat(format string) error {
	if format != "table" && format != "json" {
		return fmt.Errorf("unknown -format %q (want table or json)", format)
	}
	return nil
}

// shardCmd dispatches "tfrcsim shard run" and "tfrcsim shard exec".
func shardCmd(args []string) int {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return fail(exitUsage, errors.New("shard needs a subcommand: run | exec"))
	}
	switch args[0] {
	case "run":
		return shardRunCmd(args[1:])
	case "exec":
		return shardExecCmd(args[1:])
	default:
		return fail(exitUsage, fmt.Errorf("unknown shard subcommand %q (want run or exec)", args[0]))
	}
}

// shardRunCmd computes one shard's slice of a grid experiment and
// writes its envelope: tfrcsim shard run fig6 -shard 1/4 -o s1.json.
func shardRunCmd(args []string) int {
	fs := flag.NewFlagSet("shard run", flag.ContinueOnError)
	shardSpec := fs.String("shard", "0/1", "this shard's slice as i/n: shard i of n total")
	checkpoint := fs.String("checkpoint", "", "checkpoint file for crash-safe progress")
	resume := fs.Bool("resume", false, "resume finished cells from -checkpoint instead of recomputing")
	out := fs.String("o", "", "envelope output file (default stdout)")
	preset := fs.String("preset", "", "named parameter preset (\"default\", \"paper\")")
	paramsFile := fs.String("params", "", "JSON parameter file overlaid on the preset's defaults")
	fs.Int64("seed", 1, "random seed")
	fs.Int("seeds", 1, "seeds per cell for experiments supporting multi-seed replication")
	parallel := fs.Int("parallel", 0, "worker count for this shard's cells (0 = all CPUs; results are identical either way)")

	name, ok := popExperimentName(fs, "shard run", args)
	if !ok {
		return exitUsage
	}
	d, p, code := resolveExperiment(fs, name, *preset, *paramsFile)
	if code != exitOK {
		return code
	}
	if *parallel <= 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}

	sp := shard.ShardParams{Checkpoint: *checkpoint, Resume: *resume}
	if _, err := fmt.Sscanf(*shardSpec, "%d/%d", &sp.Index, &sp.Count); err != nil {
		return fail(exitUsage, fmt.Errorf("-shard %q is not i/n (e.g. 0/4)", *shardSpec))
	}

	// The first SIGINT/SIGTERM stops the shard once the cells in flight
	// are done; the checkpoint then holds the prefix of the cells that
	// ran and -resume continues from there.
	ctx, exitCode, stop := catchInterrupt()
	defer stop()
	env, err := shard.RunWith(shard.RunSpec{Desc: d, Params: p, Shard: sp},
		experiment.RunOptions{Workers: *parallel, Ctx: ctx})
	if errors.Is(err, experiment.ErrInterrupted) {
		return fail(exitCode(), err)
	}
	if err != nil {
		return fail(exitRuntime, err)
	}
	return writeEnvelope(*out, env)
}

// shardExecCmd supervises a local fan-out: it splits the grid across n
// subprocesses (re-invocations of this binary running "shard run"),
// restarts crashed or hung shards, and merges the envelopes. Lost
// shards degrade the output to a partial envelope and exit code 3.
func shardExecCmd(args []string) int {
	fs := flag.NewFlagSet("shard exec", flag.ContinueOnError)
	n := fs.Int("n", 2, "number of shard subprocesses")
	dir := fs.String("dir", "", "working directory for checkpoints and envelopes (default: temp dir)")
	format := fs.String("format", "table", "output format for the reduced result: table | json")
	out := fs.String("o", "", "write the merged envelope to this file as well")
	timeout := fs.Duration("shard-timeout", 0, "kill and retry a shard attempt running longer than this (0 = no timeout)")
	preset := fs.String("preset", "", "named parameter preset (\"default\", \"paper\")")
	paramsFile := fs.String("params", "", "JSON parameter file overlaid on the preset's defaults")
	fs.Int64("seed", 1, "random seed")
	fs.Int("seeds", 1, "seeds per cell for experiments supporting multi-seed replication")
	parallel := fs.Int("parallel", 0, "worker count inside each shard (0 = all CPUs divided among the -n shards)")

	name, ok := popExperimentName(fs, "shard exec", args)
	if !ok {
		return exitUsage
	}
	d, p, code := resolveExperiment(fs, name, *preset, *paramsFile)
	if code != exitOK {
		return code
	}
	if err := checkFormat(*format); err != nil {
		return fail(exitUsage, err)
	}
	if *dir == "" {
		tmp, err := os.MkdirTemp("", "tfrcsim-shard-*")
		if err != nil {
			return fail(exitRuntime, err)
		}
		defer os.RemoveAll(tmp)
		*dir = tmp
	} else if err := os.MkdirAll(*dir, 0o755); err != nil {
		return fail(exitRuntime, err)
	}
	if *parallel <= 0 {
		// n processes each taking every CPU would oversubscribe n-fold.
		*parallel = max(1, runtime.GOMAXPROCS(0)/max(1, *n))
	}
	self, err := os.Executable()
	if err != nil {
		return fail(exitRuntime, fmt.Errorf("locating own binary: %w", err))
	}

	merged, err := shard.Exec(shard.ExecConfig{
		Desc:         d,
		Params:       p,
		Shards:       *n,
		Dir:          *dir,
		ShardTimeout: *timeout,
		Command: func(ctx context.Context, c shard.Child) *exec.Cmd {
			args := []string{"shard", "run", c.Experiment,
				"-shard", fmt.Sprintf("%d/%d", c.Shard, c.Count),
				"-params", c.ParamsFile,
				"-checkpoint", c.Checkpoint,
				"-resume",
				"-parallel", strconv.Itoa(*parallel),
				"-o", c.Out,
			}
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stderr = os.Stderr
			return cmd
		},
		Log: os.Stderr,
	})
	if err != nil {
		return fail(exitRuntime, err)
	}
	if *out != "" {
		if err := shard.WriteEnvelopeFile(*out, merged); err != nil {
			return fail(exitRuntime, err)
		}
	}
	return emitMerged(merged, *format)
}

// mergeCmd validates and merges shard envelopes and, when they cover
// the full grid, re-runs the reduce step so the output is
// byte-identical to a single-machine "run -format json".
func mergeCmd(args []string) int {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	format := fs.String("format", "table", "output format for the reduced result: table | json")
	allowPartial := fs.Bool("allow-partial", false, "accept gaps: emit a partial envelope instead of failing")
	out := fs.String("o", "", "write the merged envelope to this file as well")
	// Envelope files and flags may interleave ("merge a.json b.json
	// -format json" is natural to type), so re-parse after each
	// positional instead of stopping at the first one.
	var files []string
	for rest := args; ; {
		if err := fs.Parse(rest); err != nil {
			return exitUsage
		}
		rest = fs.Args()
		if len(rest) == 0 {
			break
		}
		files, rest = append(files, rest[0]), rest[1:]
	}
	if len(files) == 0 {
		return fail(exitUsage, errors.New("merge needs at least one envelope file (from shard run or shard exec)"))
	}
	if err := checkFormat(*format); err != nil {
		return fail(exitUsage, err)
	}

	envs := make([]*shard.Envelope, 0, len(files))
	for _, f := range files {
		e, err := shard.ReadEnvelopeFile(f)
		if err != nil {
			return fail(exitRuntime, err)
		}
		envs = append(envs, e)
	}
	merged, err := shard.Merge(envs, *allowPartial)
	if err != nil {
		return fail(exitRuntime, err)
	}
	if *out != "" {
		if err := shard.WriteEnvelopeFile(*out, merged); err != nil {
			return fail(exitRuntime, err)
		}
	}
	return emitMerged(merged, *format)
}

// emitMerged renders a merged envelope: complete ones reduce to the
// standard record (table or JSON, byte-identical to a single-machine
// run); partial ones emit the envelope itself and exit 3 so callers
// can distinguish a degraded sweep from success without parsing.
func emitMerged(merged *shard.Envelope, format string) int {
	if merged.Complete {
		res, p, err := shard.Reduce(merged)
		if err != nil {
			return fail(exitRuntime, err)
		}
		if format == "json" {
			if err := experiment.WriteJSON(os.Stdout, merged.Experiment, p, res); err != nil {
				return fail(exitRuntime, fmt.Errorf("encoding result: %w", err))
			}
			return exitOK
		}
		res.Table(os.Stdout)
		return exitOK
	}
	fmt.Fprintf(os.Stderr, "tfrcsim: sweep incomplete: cells %s missing — the partial envelope follows; rerun the missing shards and merge again\n",
		missingString(merged))
	if code := writeEnvelope("", merged); code != exitOK {
		return code
	}
	return exitPartial
}

// writeEnvelope writes an envelope to a file (atomically) or stdout.
func writeEnvelope(path string, env *shard.Envelope) int {
	if path != "" {
		if err := shard.WriteEnvelopeFile(path, env); err != nil {
			return fail(exitRuntime, err)
		}
		return exitOK
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(env); err != nil {
		return fail(exitRuntime, fmt.Errorf("encoding envelope: %w", err))
	}
	return exitOK
}

// missingString renders an envelope's missing ranges for messages.
func missingString(e *shard.Envelope) string {
	parts := make([]string, len(e.Missing))
	for i, r := range e.Missing {
		parts[i] = r.String()
	}
	return strings.Join(parts, " ")
}

// popExperimentName parses the leading positional experiment name and
// the remaining flags: "<cmd> <experiment> [flags]".
func popExperimentName(fs *flag.FlagSet, cmd string, args []string) (string, bool) {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintf(os.Stderr, "tfrcsim: %s needs an experiment name (try: tfrcsim list)\n", cmd)
		return "", false
	}
	name := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return "", false
	}
	if rest := fs.Args(); len(rest) > 0 {
		fmt.Fprintf(os.Stderr, "tfrcsim: unexpected arguments %q (one experiment per %s)\n", rest, cmd)
		return "", false
	}
	return name, true
}

// resolveExperiment looks the experiment up (exit 2 with the nearest
// registered name on a typo) and resolves its parameters exactly as
// "tfrcsim run" does: preset, then the -params file, then an explicit
// -seed or -seeds as one more overlay, {"Seed": n} or {"Seeds": n}. An
// experiment whose parameters have no such field rejects that overlay,
// and the flag is ignored with a warning.
func resolveExperiment(fs *flag.FlagSet, name, preset, paramsFile string) (experiment.Descriptor, experiment.Params, int) {
	d, err := experiment.Get(name)
	if err != nil {
		return experiment.Descriptor{}, nil, fail(exitUsage, err)
	}
	p, err := d.PresetParams(preset)
	if err != nil {
		return experiment.Descriptor{}, nil, fail(exitUsage, err)
	}
	if paramsFile != "" {
		data, err := os.ReadFile(paramsFile)
		if err != nil {
			return experiment.Descriptor{}, nil, fail(exitRuntime, err)
		}
		if err := overlay(p, data); err != nil {
			return experiment.Descriptor{}, nil, fail(exitRuntime, fmt.Errorf("parsing %s for %s: %w", paramsFile, d.Name, err))
		}
	}
	fs.Visit(func(f *flag.Flag) {
		field := map[string]string{"seed": "Seed", "seeds": "Seeds"}[f.Name]
		if field == "" {
			return
		}
		if overlay(p, fmt.Appendf(nil, `{%q: %s}`, field, f.Value)) != nil {
			fmt.Fprintf(os.Stderr, "tfrcsim: %s takes no -%s; ignored\n", d.Name, f.Name)
		}
	})
	return d, p, exitOK
}

// overlay decodes one JSON object onto p, rejecting unknown fields and
// anything after the object.
func overlay(p experiment.Params, data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(p); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after the parameter object")
	}
	return nil
}
