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
//	tfrcsim run ccfair -seeds 3       # 3 seeds per cell, mean ± 90% CI
//	tfrcsim list                      # enumerate the registry
//
// Every experiment is a grid of independent cells (a single trace is a
// grid of one), so every one of them also runs distributed: "shard run"
// computes a slice of the cell grid into a shard envelope (with
// crash-safe checkpoint/resume), "shard exec" supervises a local fan-out
// with automatic restart of crashed or hung shards, and "merge"
// reassembles envelopes into the exact single-machine result:
//
//	tfrcsim shard run fig6 -shard 0/3 -checkpoint s0.ckpt -resume -o s0.json
//	tfrcsim shard exec fig14 -seeds 4 -n 3 -format json
//	tfrcsim merge s0.json s1.json s2.json -format json
//
// Merged output is byte-identical to "run -format json" at any shard
// count and any crash/retry history. A sweep that permanently lost
// shards still produces a well-formed partial envelope (complete:
// false, missing ranges enumerated) and exits with code 3.
//
// Experiment names resolve through registry aliases, so run 10 and
// run fig10 both reach fig9 (which includes Figure 10).
//
// Experiments execute their cells on a worker pool; -parallel defaults
// to the number of CPUs and results are bit-identical at any worker
// count. -seed n and -seeds n are the overlays {"Seed": n} and
// {"Seeds": n}, applied after -params; an experiment whose parameters
// lack the field warns and ignores the flag. -seeds applies to the
// experiments whose parameters support multi-seed replication (figures
// 6, 8, 14, 15 and the faultphase and ccfair scenarios); each cell
// then repeats at that many seeds and reports mean ± 90% CI.
//
// A -params file is JSON overlaid on the selected preset's defaults, so
// it may name only the fields it changes; unknown fields are rejected.
// Parameters are validated before running: impossible durations, empty
// grids, or zero flow counts fail loudly instead of producing empty
// tables.
//
//	tfrcsim run fig6 -cpuprofile cpu.out -memprofile mem.out  # pprof a run
//
// Performance is measured by the repo's benchmark, not by this command:
// go run ./benchmark (and its compare subcommand).
package main

import (
	"context"
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
)

func main() { os.Exit(run(os.Args[1:])) }

// run dispatches the subcommand and reports the process exit code.
func run(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runCmd(args[1:])
		case "list":
			printList(os.Stdout)
			return exitOK
		case "shard":
			return shardCmd(args[1:])
		case "merge":
			return mergeCmd(args[1:])
		}
	}
	return fail(exitUsage, errors.New("want a command: run <name> | list | shard run|exec <name> | merge <files>"))
}

// runCmd executes one experiment and writes its table or JSON record:
// tfrcsim run fig6 -preset paper -format json.
func runCmd(args []string) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	preset := fs.String("preset", "", "named parameter preset (\"default\", \"paper\")")
	paramsFile := fs.String("params", "", "JSON parameter file overlaid on the preset's defaults")
	format := fs.String("format", "table", "output format: table | json")
	fs.Int64("seed", 1, "random seed")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"worker count for sweep cells (1 = sequential; results are identical either way)")
	fs.Int("seeds", 1,
		"seeds per cell for experiments supporting multi-seed replication: >1 reports mean ± 90% CI")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile of the run to this file")

	name, ok := popExperimentName(fs, "run", args)
	if !ok {
		return exitUsage
	}
	if err := checkFormat(*format); err != nil {
		return fail(exitUsage, err)
	}
	d, p, code := resolveExperiment(fs, name, *preset, *paramsFile)
	if code != exitOK {
		return code
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(exitRuntime, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(exitRuntime, err)
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

	ctx, exitCode, stop := catchInterrupt()
	defer stop()

	res, err := experiment.RunWith(d, p, experiment.RunOptions{Workers: *parallel, Ctx: ctx})
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
		return fail(exitRuntime, err)
	}
	if *format == "json" {
		if err := experiment.WriteJSON(os.Stdout, d.Name, p, res); err != nil {
			return fail(exitRuntime, fmt.Errorf("encoding result: %w", err))
		}
		return exitOK
	}
	res.Table(os.Stdout)
	return exitOK
}

// catchInterrupt returns the context a run is started under: the first
// SIGINT/SIGTERM cancels it, so no further cell starts and the run winds
// down with whatever the cells that ran assembled; a second signal
// kills the process the default way. stop returns once the signal
// goroutine has exited; exitCode is the status for a run that reported
// ErrInterrupted: 128+signal, the shell convention.
func catchInterrupt() (ctx context.Context, exitCode func() int, stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 1)
	caught := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(done)
		select {
		case s := <-sigc:
			signal.Stop(sigc)
			caught <- s
			cancel()
		case <-ctx.Done(): // stop: the run ended unsignalled
		}
	}()
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
	return ctx, exitCode, func() {
		signal.Stop(sigc)
		cancel()
		<-done
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
