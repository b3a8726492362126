package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from names.go and workloads.go")

func quickChild(t *testing.T, name string, traced bool) childResult {
	t.Helper()
	res, err := runChild(childArgs{
		Workload: name, Seed: 1, Seconds: 0.05, Trace: traced, Quick: true,
		Spawned: now().UnixNano(), Tmp: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s (traced=%v): %v", name, traced, err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s (traced=%v): %d of %d cells failed", name, traced, res.Failed, res.Attempted)
	}
	return res
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Every workload executes at the quick sizing, passes its checks, and
// yields six finite non-zero end-to-end metrics; its traced pass emits
// only names the vocabulary knows, and the same digest.
func TestWorkloadsQuick(t *testing.T) {
	traced := map[string]bool{}
	for _, d := range tracedMetrics {
		traced[d.Name] = true
	}
	for _, info := range workloads {
		t.Run(info.name, func(t *testing.T) {
			res := quickChild(t, info.name, false)
			if len(res.Samples) == 0 || res.Digest == "" || res.SetupS <= 0 {
				t.Fatalf("incomplete result: %d samples, digest %q, setup %v", len(res.Samples), res.Digest, res.SetupS)
			}
			rep := workloadReport{Cells: res.Cells, Pkts: res.Pkts, SetupS: []float64{res.SetupS}}
			rep.fill(res.Samples)
			if got, want := keys(rep.Metrics), names(endToEnd); !reflect.DeepEqual(got, want) {
				t.Fatalf("end-to-end metrics %v, want %v", got, want)
			}
			for name, v := range rep.Metrics {
				if !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive finite number", name, v)
				}
			}

			tr := quickChild(t, info.name, true)
			if tr.Digest != res.Digest || tr.Pkts != res.Pkts {
				t.Errorf("traced child simulated something else: digest %.12s vs %.12s, pkts %v vs %v", tr.Digest, res.Digest, tr.Pkts, res.Pkts)
			}
			for name, v := range tr.Layer {
				if !traced[name] {
					t.Errorf("traced pass emitted %q, which names.go does not list", name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", name, v)
				}
			}
			if len(tr.Spans) == 0 || tr.Spans[0].Name != "repeat" || tr.Spans[0].Parent != -1 {
				t.Errorf("traced pass recorded no parent-linked spans")
			}
			for i, s := range tr.Spans {
				if s.Parent >= i || s.EndNs < s.StartNs {
					t.Fatalf("span %d %+v: parent must precede it and end follow start", i, s)
				}
			}
		})
	}
}

func TestKernelsQuick(t *testing.T) {
	got := runKernels(quickSizing().KernelDiv)
	if g, w := keys(got), names(kernelMetrics); !reflect.DeepEqual(g, w) {
		t.Fatalf("kernels emitted\n%v\nnames.go lists\n%v", g, w)
	}
	for name, v := range got {
		if !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want a positive finite number", name, v)
		}
	}
}

// The per-layer numbers describe the simulation the end-to-end numbers
// time only if the hand-built replica is that simulation: same bytes,
// same packets, with and without a tap on every link, at two seeds. And
// the shard path must write what the plain path writes.
func TestReplicaFidelity(t *testing.T) {
	sz := quickSizing()
	for _, seed := range []int64{1, 2} {
		for _, name := range []string{"dumbbell8", "manyflows10k", "zoo-lossy"} {
			info, _ := findWorkload(name)
			w, err := info.open(sz, seed, "")
			if err != nil {
				t.Fatal(err)
			}
			res := w.repeat()
			plain := w.canon(res)
			pkts, failed := w.check(res, plain)
			if failed != 0 {
				t.Fatalf("%s seed %d: %d cells fail their checks", name, seed, failed)
			}
			for _, taps := range []bool{false, true} {
				tr := newTracer()
				got, st := w.traced(tr, tr.begin("repeat", -1, -1), taps)
				if b := w.canon(got); !bytes.Equal(b, plain) {
					t.Errorf("%s seed %d taps=%v: replica result differs from the public path's", name, seed, taps)
				}
				if p, _ := w.check(got, plain); p != pkts {
					t.Errorf("%s seed %d taps=%v: replica moved %v pkts, public path %v", name, seed, taps, p, pkts)
				}
				if st.events == 0 || (taps && st.counts.hops == 0) {
					t.Errorf("%s seed %d taps=%v: counted nothing: %+v", name, seed, taps, st)
				}
			}
		}

		sweep, err := openSweepGrid(sz, seed, "")
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := openShardMerge(sz, seed, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		a, b := sweep.repeat(), sharded.repeat()
		if _, failed := sharded.check(b, sharded.canon(b)); failed != 0 {
			t.Errorf("seed %d: shardmerge fails its own check", seed)
		}
		if !bytes.Equal(sweep.canon(a), sharded.canon(b)) {
			t.Errorf("seed %d: shardmerge bytes differ from sweepgrid bytes", seed)
		}
	}
}

// manifest is BENCHMARK.json as the benchmark contract defines it.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWork   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestLayer  `json:"per_layer"`
}

type manifestWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func wantManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: 30,
	}
	for _, w := range workloads {
		if _, off := offContract[w.name]; !off {
			m.Workloads = append(m.Workloads, manifestWork{w.name, w.why})
		}
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer() {
		m.PerLayer = append(m.PerLayer, manifestLayer{d.Name, d.Unit, d.Better})
	}
	return m
}

// BENCHMARK.json says what names.go and workloads.go say, and stays
// inside the contract's limits.
func TestManifest(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := wantManifest()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s is out of step with names.go/workloads.go; run go test ./benchmark -run TestManifest -update", path)
	}

	if len(data) > 64<<10 {
		t.Errorf("%s is %d bytes, limit 64 KiB", path, len(data))
	}
	for name := range offContract {
		if _, ok := findWorkload(name); !ok {
			t.Errorf("offContract names %q, which is not a workload", name)
		}
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range want.Workloads {
		checkName(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range want.EndToEnd {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == lower
			for _, o := range want.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Errorf("no setup_s metric in seconds, lower is better")
	}
	for _, m := range want.PerLayer {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
}

// readmeTable returns the back-quoted first cells of the table rows in
// one "## " section of README.md.
func readmeTable(t *testing.T, section string) []string {
	t.Helper()
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(data), "\n## "+section+"\n")
	if !ok {
		t.Fatalf("README.md has no section %q", section)
	}
	body, _, _ := strings.Cut(rest, "\n## ")
	row := regexp.MustCompile("(?m)^\\| `([^`]+)` \\|")
	var out []string
	for _, m := range row.FindAllStringSubmatch(body, -1) {
		out = append(out, m[1])
	}
	sort.Strings(out)
	return out
}

func TestReadmeTablesMatchNames(t *testing.T) {
	var ws []string
	for _, w := range workloads {
		ws = append(ws, w.name)
	}
	sort.Strings(ws)
	for _, c := range []struct {
		section string
		want    []string
	}{
		{"Workloads", ws},
		{"End-to-end metrics", names(endToEnd)},
		{"Per-layer metrics", names(perLayer())},
	} {
		if got := readmeTable(t, c.section); !reflect.DeepEqual(got, c.want) {
			t.Errorf("README section %q lists\n%v\nthe code has\n%v", c.section, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", []float64{100, 101, 99, 100}, []float64{100, 100, 101, 99}, lower, 0.10, unchanged},
		{"slower by a fifth", []float64{100, 101, 99, 100}, []float64{120, 121, 119, 122}, lower, 0.10, regressed},
		{"rate down by a fifth", []float64{100, 101, 99, 100}, []float64{80, 81, 79, 82}, higher, 0.10, regressed},
		{"worse but inside the bound", []float64{100, 101, 99, 100}, []float64{105, 106, 104, 105}, lower, 0.10, unchanged},
		{"faster in every pair", []float64{100, 101, 99, 100}, []float64{90, 91, 89, 90}, lower, 0.10, improved},
		{"rate up in every pair", []float64{100, 101, 99, 100}, []float64{110, 111, 109, 110}, higher, 0.10, improved},
		{"noisy and interleaved", []float64{100, 140, 80, 120}, []float64{130, 90, 150, 85}, lower, 0.10, unresolved},
		{"noisy but every run worse", []float64{100, 140, 80, 120}, []float64{200, 260, 190, 240}, lower, 0.10, regressed},
		{"wins too few pairs", []float64{100, 100, 100, 100}, []float64{99, 101, 99, 101}, lower, 0.10, unchanged},
	} {
		if got, _ := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareSetsFlagsRegressionAndFailedCells(t *testing.T) {
	mk := func(wall float64, failed int) report {
		r := report{Schema: reportSchema, Seed: 1}
		for _, info := range workloads {
			w := workloadReport{Name: info.name, Cells: 4, Pkts: 1000, AttemptedCells: 40, FailedCells: failed, Digest: "d", SetupS: []float64{0.1}}
			w.fill([]sample{{WallNs: int64(wall * 1e9), CPUNs: int64(wall * 1e9), Mallocs: 100, AllocBytes: 1000}})
			r.Workloads = append(r.Workloads, w)
		}
		return r
	}
	base := []report{mk(1, 0), mk(1.01, 0), mk(0.99, 0)}
	if compareSets(io.Discard, base, []report{mk(1, 0), mk(0.99, 0), mk(1.01, 0)}) {
		t.Errorf("two sets of the same numbers compared as worse")
	}
	if !compareSets(io.Discard, base, []report{mk(1.3, 0), mk(1.31, 0), mk(1.29, 0)}) {
		t.Errorf("a 30%% slowdown did not compare as worse")
	}
	if !compareSets(io.Discard, base, []report{mk(1, 1), mk(1, 0), mk(1, 0)}) {
		t.Errorf("a higher share of failed cells did not compare as worse")
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	d := summarize(xs)
	if d.N != 40 || d.Median != 20.5 || d.Q1 != 10.75 || d.Q3 != 30.25 {
		t.Errorf("quartiles of 1..40: %+v", d)
	}
	if d.TailPct != 75 || d.Tail != 30 {
		t.Errorf("tail of 1..40 is the value with ten samples beyond it (30, p75), got %v at p%v", d.Tail, d.TailPct)
	}
	if d := summarize(xs[:5]); d.TailPct != 0 || d.Tail != 5 {
		t.Errorf("five samples support no percentile; tail must be the maximum: %+v", d)
	}
}
