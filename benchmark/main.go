// Command benchmark is the repo's performance benchmark: five workloads,
// six end-to-end metrics and a per-layer ledger. See README.md beside it.
//
//	go run ./benchmark -seed 1 [-out DIR]       every workload, untraced then traced
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//	go run ./benchmark compare A B              two sets of result files
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "run one workload as the benchmark contract does (default: all, both passes)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 20, "time spent measuring one workload in one pass")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer ones")
		out      = flag.String("out", "", "directory for result.json and trace.json (full run only)")
		quick    = flag.Bool("quick", false, "tiny sizing, for a smoke test; its numbers mean nothing")
		flows    = flag.Int("flows", 0, "manyflows population, to run the 1k or 100k rung off-contract")
		childArg = flag.String("child", "", "internal: run one child, arguments as JSON")
	)
	flag.Parse()

	if *childArg != "" {
		os.Exit(childMain(*childArg))
	}
	err := func() error {
		if runtime.NumCPU() < sweepWorkers {
			return fmt.Errorf("the benchmark runs its sweeps on %d workers and needs as many CPUs; this host has %d", sweepWorkers, runtime.NumCPU())
		}
		p, err := newParent(*seed, *seconds, *quick, *flows)
		if err != nil {
			return err
		}
		defer p.cleanup()
		if *workload != "" {
			return p.contractRun(*workload, *trace == 1)
		}
		return p.fullRun(*out)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func childMain(arg string) int {
	var a childArgs
	if err := json.Unmarshal([]byte(arg), &a); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: child arguments:", err)
		return 2
	}
	res, err := runChild(a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// parent starts the children, one at a time, and adds up what they print.
type parent struct {
	exe     string
	seed    int64
	seconds float64
	quick   bool
	flows   int
	tmp     string // scratch for the files shardmerge writes, inside the working directory
}

func newParent(seed int64, seconds float64, quick bool, flows int) (*parent, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(scratchRoot, "run")
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(tmp)
	if err != nil {
		return nil, err
	}
	return &parent{exe: exe, seed: seed, seconds: seconds, quick: quick, flows: flows, tmp: abs}, nil
}

// scratchRoot keeps every file the benchmark writes inside the checkout
// it runs from; .gitignore names it.
const scratchRoot = ".bench_tmp"

func (p *parent) cleanup() {
	os.RemoveAll(p.tmp)
	os.Remove(scratchRoot) // only if no other run is using it
}

// spawn runs one child to completion with GOMAXPROCS fixed, so a result
// does not depend on how many CPUs the host happens to show.
func (p *parent) spawn(a childArgs) (childResult, error) {
	a.Seed, a.Quick, a.Flows, a.Tmp = p.seed, p.quick, p.flows, p.tmp
	a.Spawned = now().UnixNano()
	arg, err := json.Marshal(a)
	if err != nil {
		return childResult{}, err
	}
	cmd := exec.Command(p.exe, "-child", string(arg))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", sweepWorkers))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return childResult{}, fmt.Errorf("child %q: %w", a.Workload, err)
	}
	var res childResult
	if err := json.Unmarshal(stdout, &res); err != nil {
		return childResult{}, fmt.Errorf("child %q: reading its result: %w", a.Workload, err)
	}
	return res, nil
}

// endToEnd is the untraced pass of one workload: several children in
// turn, each paying the full set-up and measuring its share of the time.
func (p *parent) endToEnd(info workloadInfo) (workloadReport, error) {
	rep := workloadReport{Name: info.name, Why: info.why, Correct: true}
	var samples []sample
	for i := 0; i < info.children; i++ {
		res, err := p.spawn(childArgs{Workload: info.name, Seconds: p.seconds / float64(info.children)})
		if err != nil {
			return rep, err
		}
		if i > 0 && (res.Digest != rep.Digest || res.Pkts != rep.Pkts) {
			rep.Correct = false // two processes, one seed, two simulations
		}
		rep.Cells, rep.Pkts, rep.Digest = res.Cells, res.Pkts, res.Digest
		rep.AttemptedCells += res.Attempted
		rep.FailedCells += res.Failed
		rep.SetupS = append(rep.SetupS, res.SetupS)
		rep.PeakRSS = max(rep.PeakRSS, res.PeakRSS)
		samples = append(samples, res.Samples...)
	}
	rep.fill(samples)
	if rep.FailedCells > 0 {
		rep.Correct = false
	}
	return rep, nil
}

// layers is the traced pass of one workload.
func (p *parent) layers(info workloadInfo, kernels map[string]float64) (tracedReport, error) {
	res, err := p.spawn(childArgs{Workload: info.name, Seconds: p.seconds, Trace: true})
	if err != nil {
		return tracedReport{}, err
	}
	t := tracedReport{
		Digest: res.Digest, Pkts: res.Pkts,
		AttemptedCells: res.Attempted, FailedCells: res.Failed,
		Metrics: res.Layer, spans: res.Spans,
	}
	t.Metrics["host.peak_rss_bytes"] = float64(res.PeakRSS)
	t.Ledger = ledger(info.name, t.Metrics, kernels)
	if run := t.Metrics["sim.run_s"]; run > 0 {
		var ns float64
		for _, term := range t.Ledger {
			ns += term.Ns
		}
		t.Metrics["ledger.explained_frac"] = ns / (run * 1e9)
	}
	for _, d := range tracedMetrics {
		if _, ok := t.Metrics[d.Name]; !ok {
			t.Metrics[d.Name] = 0
		}
	}
	tr := tracer{spans: res.Spans}
	t.SpanSummary = tr.summary()
	return t, nil
}

func (p *parent) kernels() (map[string]float64, error) {
	res, err := p.spawn(childArgs{})
	return res.Layer, err
}

// contractRun is one run as the benchmark contract asks for it: one
// workload, one pass, and the result as the last line of standard output.
func (p *parent) contractRun(name string, traced bool) error {
	info, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	line := contractLine{Metrics: map[string]contractValue{}}
	if !traced {
		rep, err := p.endToEnd(info)
		if err != nil {
			return err
		}
		rep.print(os.Stdout)
		line.Correct, line.Attempted, line.Failed = rep.Correct, rep.AttemptedCells, rep.FailedCells
		for _, d := range endToEnd {
			line.Metrics[d.Name] = contractValue{rep.Metrics[d.Name], d.Unit}
		}
		return line.emit()
	}
	kernels, err := p.kernels()
	if err != nil {
		return err
	}
	t, err := p.layers(info, kernels)
	if err != nil {
		return err
	}
	printMetrics(os.Stdout, "kernels", kernelMetrics, kernels)
	printMetrics(os.Stdout, info.name+" traced", tracedMetrics, t.Metrics)
	line.Correct, line.Attempted, line.Failed = t.FailedCells == 0, t.AttemptedCells, t.FailedCells
	for _, d := range kernelMetrics {
		line.Metrics[d.Name] = contractValue{kernels[d.Name], d.Unit}
	}
	for _, d := range tracedMetrics {
		line.Metrics[d.Name] = contractValue{t.Metrics[d.Name], d.Unit}
	}
	return line.emit()
}

// fullRun is the whole benchmark: for each workload the untraced pass,
// then the kernels once, then each workload's traced pass.
func (p *parent) fullRun(out string) error {
	start := now()
	rep := report{
		Schema: reportSchema, Seed: p.seed, Seconds: p.seconds, Quick: p.quick,
		Host:     hostInfo(p.tmp),
		EndToEnd: endToEnd, PerLayer: perLayer(),
	}
	for _, info := range workloads {
		w, err := p.endToEnd(info)
		if err != nil {
			return err
		}
		w.print(os.Stdout)
		rep.Workloads = append(rep.Workloads, w)
	}
	kernels, err := p.kernels()
	if err != nil {
		return err
	}
	rep.Kernels = kernels
	printMetrics(os.Stdout, "kernels", kernelMetrics, kernels)

	trace := map[string][]span{}
	for i, info := range workloads {
		t, err := p.layers(info, kernels)
		if err != nil {
			return err
		}
		w := &rep.Workloads[i]
		if t.Digest != w.Digest || t.Pkts != w.Pkts {
			// The replica is not the simulation the untraced pass timed.
			w.Correct = false
		}
		if t.FailedCells > 0 {
			w.Correct = false
		}
		printMetrics(os.Stdout, info.name+" traced", tracedMetrics, t.Metrics)
		trace[info.name] = t.spans
		w.Traced = &t
	}
	rep.WallS = now().Sub(start).Seconds()

	line := contractLine{Correct: true, Metrics: map[string]contractValue{}}
	for _, w := range rep.Workloads {
		line.Correct = line.Correct && w.Correct
		line.Attempted += w.AttemptedCells + w.Traced.AttemptedCells
		line.Failed += w.FailedCells + w.Traced.FailedCells
		for _, d := range endToEnd {
			line.Metrics[w.Name+"/"+d.Name] = contractValue{w.Metrics[d.Name], d.Unit}
		}
		for _, d := range tracedMetrics {
			line.Metrics[w.Name+"/"+d.Name] = contractValue{w.Traced.Metrics[d.Name], d.Unit}
		}
	}
	for _, d := range kernelMetrics {
		line.Metrics[d.Name] = contractValue{kernels[d.Name], d.Unit}
	}
	fmt.Printf("\nwhole run: %.1f s, failed cells %d of %d\n", rep.WallS, line.Failed, line.Attempted)
	if out != "" {
		if err := writeJSON(filepath.Join(out, "result.json"), rep); err != nil {
			return err
		}
		if err := writeJSON(filepath.Join(out, "trace.json"), trace); err != nil {
			return err
		}
	}
	if err := line.emit(); err != nil {
		return err
	}
	if !line.Correct {
		return errors.New("a check failed; see failed_cells above")
	}
	return nil
}

// contractLine is the one JSON object the contract reads from the last
// line of standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (l contractLine) emit() error {
	return json.NewEncoder(os.Stdout).Encode(l)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
