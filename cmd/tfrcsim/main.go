// Command tfrcsim runs the paper's evaluation figures and the
// beyond-the-paper experiments from the public experiment registry.
// Each run executes one experiment and writes either the gnuplot-ready
// text table or a JSON record to stdout.
//
// Usage:
//
//	tfrcsim run fig6                  # Figure 6 at default (laptop) scale
//	tfrcsim run fig6 -preset paper    # the paper's full-scale parameters
//	tfrcsim run fig6 -format json     # {experiment, params, result} JSON
//	tfrcsim run fig9 -seed 7          # change the random seed
//	tfrcsim run fig6 -params p.json   # overlay a JSON parameter file
//	tfrcsim run parkinglot -seeds 3   # 3 seeds per cell, mean ± 90% CI
//	tfrcsim list                      # enumerate the registry
//
// Grid-shaped experiments also run distributed: "shard run" computes a
// slice of the cell grid into a shard envelope (with crash-safe
// checkpoint/resume), "shard exec" supervises a local fan-out with
// automatic restart of crashed or hung shards, and "merge" reassembles
// envelopes into the exact single-machine result:
//
//	tfrcsim shard run fig6 -shard 0/3 -checkpoint s0.ckpt -resume -o s0.json
//	tfrcsim shard exec fig6 -n 3 -format json
//	tfrcsim merge s0.json s1.json s2.json -format json
//
// Merged output is byte-identical to "run -format json" at any shard
// count and any crash/retry history. A sweep that permanently lost
// shards still produces a well-formed partial envelope (complete:
// false, missing ranges enumerated) and exits with code 3.
//
// The historical flag spellings keep working: -fig 6 is run fig6,
// -exp parkinglot is run parkinglot, -paper is -preset paper, and
// -list is list. Experiment names resolve through registry aliases, so
// run 10 and run fig10 both reach fig9 (which includes Figure 10).
//
// Sweep-shaped experiments execute their independent cells on a worker
// pool; -parallel defaults to the number of CPUs and results are
// bit-identical at any worker count. -seeds applies to experiments
// whose parameters support multi-seed replication (figures 6, 8, 14,
// 15 and the parkinglot/bwstep scenarios); each cell then repeats at
// that many seeds and reports mean ± 90% CI.
//
// A -params file is JSON overlaid on the selected preset's defaults, so
// it may name only the fields it changes; unknown fields are rejected.
// Parameters are validated before running: impossible durations, empty
// grids, or zero flow counts fail loudly instead of producing empty
// tables.
//
//	tfrcsim run fig6 -cpuprofile cpu.out -memprofile mem.out  # pprof a run
//	tfrcsim -bench -bench-name PR3             # write BENCH_PR3.json
//	tfrcsim -bench -bench-compare bench/BENCH_3.json  # CI regression gate
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"

	"tfrc/experiment"
	"tfrc/internal/bench"
)

func main() { os.Exit(run()) }

// run holds the real main body and reports the process exit code, so
// deferred profile writers always flush before the process exits.
func run() int {
	fig := flag.Int("fig", 0, "figure number to reproduce (2-21); same as: run fig<N>")
	expName := flag.String("exp", "", "experiment name; same as: run <name>")
	paper := flag.Bool("paper", false, "use the paper's full-scale parameters; same as -preset paper")
	preset := flag.String("preset", "", "named parameter preset (\"default\", \"paper\")")
	paramsFile := flag.String("params", "", "JSON parameter file overlaid on the preset's defaults")
	format := flag.String("format", "table", "output format: table | json")
	seed := flag.Int64("seed", 1, "random seed")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker count for sweep cells (1 = sequential; results are identical either way)")
	seeds := flag.Int("seeds", 1,
		"seeds per cell for experiments supporting multi-seed replication: >1 reports mean ± 90% CI")
	list := flag.Bool("list", false, "list experiments and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile of the run to this file")
	runBench := flag.Bool("bench", false,
		"run the perf measurement suite and write a BENCH_<name>.json snapshot instead of an experiment")
	benchName := flag.String("bench-name", "local", "label stored in the bench snapshot")
	benchOut := flag.String("bench-out", "", "bench snapshot path (default BENCH_<name>.json)")
	benchCompare := flag.String("bench-compare", "",
		"compare the fresh bench snapshot against this committed baseline and exit non-zero on regression")
	benchTolerance := flag.Float64("bench-tolerance", 0.15,
		"allowed fractional regression for -bench-compare (0.15 = 15%)")

	// Subcommand forms: "tfrcsim run <name> [flags]" and "tfrcsim list".
	// A bare leading word is taken as an experiment name directly.
	args := os.Args[1:]
	runName := ""
	listCmd := false
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "run":
			if len(args) < 2 || strings.HasPrefix(args[1], "-") {
				fmt.Fprintln(os.Stderr, "tfrcsim: run needs an experiment name (try: tfrcsim list)")
				return 2
			}
			runName, args = args[1], args[2:]
		case "list":
			listCmd, args = true, args[1:]
		case "shard":
			return shardCmd(args[1:])
		case "merge":
			return mergeCmd(args[1:])
		default:
			runName, args = args[0], args[1:]
		}
	}
	flag.CommandLine.Parse(args)
	if rest := flag.CommandLine.Args(); len(rest) > 0 {
		fmt.Fprintf(os.Stderr, "tfrcsim: unexpected arguments %q (one experiment per run)\n", rest)
		return 2
	}
	if *format != "table" && *format != "json" {
		fmt.Fprintf(os.Stderr, "tfrcsim: unknown -format %q (want table or json)\n", *format)
		return 2
	}

	experiment.SetParallelism(*parallel)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tfrcsim: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "tfrcsim: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tfrcsim: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "tfrcsim: %v\n", err)
			}
		}()
	}

	if *runBench {
		rep := bench.Run(*benchName)
		out := *benchOut
		if out == "" {
			out = "BENCH_" + *benchName + ".json"
		}
		if err := rep.Write(out); err != nil {
			fmt.Fprintf(os.Stderr, "tfrcsim: writing bench snapshot: %v\n", err)
			return 1
		}
		fmt.Printf("bench: %.0f pkts/sec, %.0f allocs/op, %.2fM scheduler events/sec, %.1f setup allocs/cell, %.1f cells/sec (%d workers) -> %s\n",
			rep.Scenario.PktsPerSec, rep.Scenario.AllocsPerOp,
			rep.Scheduler.EventsPerSec/1e6, rep.Sweep.CellSetupAllocs,
			rep.Sweep.CellsPerSec, rep.Sweep.Workers, out)
		if *benchCompare != "" {
			base, err := bench.Load(*benchCompare)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tfrcsim: %v\n", err)
				return 1
			}
			if err := bench.Compare(rep, base, *benchTolerance); err != nil {
				fmt.Fprintf(os.Stderr, "tfrcsim: %v\n", err)
				return 1
			}
			fmt.Printf("bench: within %.0f%% of baseline %s (%s)\n",
				*benchTolerance*100, base.Name, *benchCompare)
		}
		return 0
	}

	if *list || listCmd {
		printList(os.Stdout)
		return 0
	}

	// Exactly one way of naming the experiment: run <name>, -fig, or -exp.
	name := runName
	sources := 0
	for _, set := range []bool{runName != "", *fig != 0, *expName != ""} {
		if set {
			sources++
		}
	}
	if sources > 1 {
		fmt.Fprintln(os.Stderr, "tfrcsim: pass only one of: run <name>, -fig, -exp")
		return 2
	}
	if *fig != 0 {
		name = fmt.Sprintf("fig%d", *fig)
	}
	if *expName != "" {
		name = *expName
	}
	if name == "" {
		fmt.Fprintln(os.Stderr, "tfrcsim: pass run <name> (try: tfrcsim list), -fig 2..21, or -exp <name>")
		return 2
	}

	d, err := experiment.Get(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tfrcsim: %v\n", err)
		return 2
	}

	// Resolve the preset. -paper is legacy shorthand for -preset paper,
	// and — as the old per-figure switch did — silently means "default"
	// for experiments that have no paper-scale setup (with a warning).
	presetName := *preset
	if *paper {
		if presetName != "" && presetName != "paper" {
			fmt.Fprintln(os.Stderr, "tfrcsim: -paper conflicts with -preset")
			return 2
		}
		if _, ok := d.Presets["paper"]; !ok {
			fmt.Fprintf(os.Stderr, "tfrcsim: %s has no paper-scale preset; using defaults\n", d.Name)
		} else {
			presetName = "paper"
		}
	}
	p, err := d.PresetParams(presetName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tfrcsim: %v\n", err)
		return 2
	}

	if *paramsFile != "" {
		data, err := os.ReadFile(*paramsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tfrcsim: %v\n", err)
			return 1
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(p); err != nil {
			fmt.Fprintf(os.Stderr, "tfrcsim: parsing %s for %s: %v\n", *paramsFile, d.Name, err)
			return 1
		}
		if dec.More() {
			fmt.Fprintf(os.Stderr, "tfrcsim: %s: trailing data after the parameter object\n", *paramsFile)
			return 1
		}
	}

	// -seed/-seeds apply only when passed explicitly, so a -params file's
	// seeds survive; experiments without the knob warn instead of
	// silently accepting it.
	seedSet, seedsSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			seedSet = true
		case "seeds":
			seedsSet = true
		}
	})
	if seedSet {
		if s, ok := p.(experiment.SeedSetter); ok {
			s.SetSeed(*seed)
		} else {
			fmt.Fprintf(os.Stderr, "tfrcsim: %s takes no -seed; ignored\n", d.Name)
		}
	}
	if seedsSet {
		if s, ok := p.(experiment.SeedsSetter); ok {
			s.SetSeeds(*seeds)
		} else {
			fmt.Fprintf(os.Stderr, "tfrcsim: %s takes no -seeds; ignored\n", d.Name)
		}
	}

	exitCode, stop := catchInterrupt()
	defer stop()

	res, err := experiment.Run(d, p)
	if errors.Is(err, experiment.ErrInterrupted) {
		// Emit the partial record as JSON regardless of -format: a
		// truncated table is useless, but the envelope says exactly
		// which cells ran. Exit 128+signal, the shell convention.
		fmt.Fprintf(os.Stderr, "tfrcsim: %v\n", err)
		if werr := experiment.WritePartialJSON(os.Stdout, d.Name, p, res); werr != nil {
			fmt.Fprintf(os.Stderr, "tfrcsim: encoding partial result: %v\n", werr)
		}
		return exitCode()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tfrcsim: %v\n", err)
		return 1
	}
	if *format == "json" {
		if err := experiment.WriteJSON(os.Stdout, d.Name, p, res); err != nil {
			fmt.Fprintf(os.Stderr, "tfrcsim: encoding result: %v\n", err)
			return 1
		}
		return 0
	}
	res.Table(os.Stdout)
	return 0
}

// catchInterrupt puts the experiment layer under a cancellable run
// context: the first SIGINT/SIGTERM skips the remaining sweep cells and
// the run winds down with whatever the finished cells assembled; a
// second signal kills the process the default way. stop uninstalls the
// context; exitCode is the status for a run that reported
// ErrInterrupted: 128+signal, the shell convention.
func catchInterrupt() (exitCode func() int, stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 1)
	caught := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		signal.Stop(sigc)
		caught <- s
		cancel()
	}()
	experiment.SetContext(ctx)
	exitCode = func() int {
		select {
		case s := <-caught:
			if sn, ok := s.(syscall.Signal); ok {
				return 128 + int(sn)
			}
		default: // cancelled some other way; keep the SIGINT convention
		}
		return 130
	}
	return exitCode, func() {
		experiment.SetContext(nil)
		signal.Stop(sigc)
		cancel()
	}
}

// printList enumerates the registry: one row per experiment, generated
// from the descriptors rather than hand-maintained.
func printList(w *os.File) {
	descs := experiment.List()
	width := 0
	for _, d := range descs {
		if len(d.Name) > width {
			width = len(d.Name)
		}
	}
	for _, d := range descs {
		line := fmt.Sprintf("%-*s  %s", width, d.Name, d.Description)
		if len(d.Presets) > 0 {
			names := make([]string, 0, len(d.Presets))
			for n := range d.Presets {
				names = append(names, n)
			}
			sort.Strings(names)
			if len(names) == 1 {
				line += fmt.Sprintf("  [preset: %s]", names[0])
			} else {
				line += fmt.Sprintf("  [presets: %s]", strings.Join(names, ", "))
			}
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w, "\nrun one with: tfrcsim run <name> [-preset paper] [-format json] [-params file.json]")
}
