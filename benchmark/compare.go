package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// compareMain implements "benchmark compare A B". A and B each name a set
// of full-run result files: one file, several separated by commas, or a
// directory searched for *.json at any depth. It prints one row per
// (end-to-end metric, workload) and returns 1 when any row regressed or
// B failed more cells.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A B   (each a result file, a comma-separated list, or a directory of them)")
		return 2
	}
	a, err := loadSet(args[0])
	if err == nil {
		var b []report
		if b, err = loadSet(args[1]); err == nil {
			if compareSets(os.Stdout, a, b) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark compare:", err)
	return 2
}

func loadSet(arg string) ([]report, error) {
	var files []string
	for _, part := range strings.Split(arg, ",") {
		// WalkDir visits in lexical order, and a plain file is its own walk.
		err := filepath.WalkDir(part, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (path == part || strings.HasSuffix(path, ".json")) {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	var set []report
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Schema != reportSchema {
			continue // a trace.json or some other file in the directory
		}
		set = append(set, r)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no %s files", arg, reportSchema)
	}
	return set, nil
}

// Verdicts, in the order the README explains them.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict judges one metric on one workload from each side's per-run
// values. worse is how far B's median is on the wrong side of A's, as a
// share of A's median.
//
//   - regressed: B's median is worse than A's by more than the bound, and
//     either side's runs agree among themselves to within the bound or
//     every run of B is worse than every run of A.
//   - unresolved: a side's run-to-run spread (interquartile, as a share of
//     its median) exceeds the bound and the two sides' runs interleave, so
//     neither "unchanged" nor "regressed" can be said.
//   - improved: B's run beats A's run in at least nine tenths of the pairs
//     (ties count for neither), and the medians differ by more than A's
//     own interquartile spread.
//   - unchanged: everything else.
func verdict(a, b []float64, better string, bound float64) (v string, worse float64) {
	da, db := summarize(a), summarize(b)
	sign := 1.0 // positive worse means B is worse
	if better == higher {
		sign = -1
	}
	worse = sign * (db.Median - da.Median) / da.Median
	isWorse := func(x, y float64) bool { return sign*(x-y) > 0 } // x worse than y

	allWorse, allBetter := true, true
	for _, x := range b {
		for _, y := range a {
			if !isWorse(x, y) {
				allWorse = false
			}
			if !isWorse(y, x) {
				allBetter = false
			}
		}
	}
	spread := func(d dist) float64 { return (d.Q3 - d.Q1) / d.Median }
	noisy := spread(da) > bound || spread(db) > bound

	if noisy && !allWorse && !allBetter {
		return unresolved, worse
	}
	if worse > bound {
		return regressed, worse
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if isWorse(a[i], b[i]) {
			wins++
		}
	}
	if 10*wins >= 9*pairs && sign*(da.Median-db.Median) > da.Q3-da.Q1 {
		return improved, worse
	}
	return unchanged, worse
}

// compareSets prints the table and reports whether B is worse: a
// regressed row, or a higher share of failed cells.
func compareSets(out io.Writer, a, b []report) (bad bool) {
	fmt.Fprintf(out, "A: %d run(s)   B: %d run(s)   medians [q1..q3] over runs; bound = allowed worsening\n\n", len(a), len(b))
	fmt.Fprintf(out, "%-13s %-21s %14s %27s %14s %27s %7s %8s  %s\n",
		"workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "bound", "B worse", "verdict")
	values := func(set []report, workload, metric string) []float64 {
		var xs []float64
		for _, r := range set {
			for _, w := range r.Workloads {
				if w.Name == workload {
					xs = append(xs, w.Metrics[metric])
				}
			}
		}
		return xs
	}
	for _, info := range workloads {
		for _, d := range endToEnd {
			xa, xb := values(a, info.name, d.Name), values(b, info.name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v, worse := verdict(xa, xb, d.Better, d.Bound)
			da, db := summarize(xa), summarize(xb)
			fmt.Fprintf(out, "%-13s %-21s %14.6g %27s %14.6g %27s %6.0f%% %+7.1f%%  %s\n",
				info.name, d.Name, da.Median, fmt.Sprintf("[%.6g..%.6g]", da.Q1, da.Q3),
				db.Median, fmt.Sprintf("[%.6g..%.6g]", db.Q1, db.Q3), 100*d.Bound, 100*worse, v)
			if v == regressed {
				bad = true
			}
		}
	}

	fmt.Fprintln(out)
	for _, info := range workloads {
		fa, fb := failedShare(a, info.name), failedShare(b, info.name)
		fmt.Fprintf(out, "%-13s failed cells A %.4g  B %.4g   sim_digest %s   counts %s\n",
			info.name, fa, fb, sameness(a, b, info.name, digestOf), sameness(a, b, info.name, countsOf))
		if fb > fa {
			bad = true
		}
	}
	return bad
}

func failedShare(set []report, workload string) float64 {
	var failed, attempted int
	for _, r := range set {
		for _, w := range r.Workloads {
			if w.Name != workload {
				continue
			}
			failed += w.FailedCells
			attempted += w.AttemptedCells
			if w.Traced != nil {
				failed += w.Traced.FailedCells
				attempted += w.Traced.AttemptedCells
			}
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func digestOf(w workloadReport) string { return w.Digest }

// countsOf renders the integer counts a simulation fixes: they must
// repeat exactly between runs of the same code and seed.
func countsOf(w workloadReport) string {
	s := fmt.Sprintf("pkts=%v", w.Pkts)
	if w.Traced != nil {
		for _, name := range []string{"sim.events", "netsim.hops", "netsim.drops", "tcp.data_pkts", "tcp.acks", "tfrcsim.data_pkts", "tfrcsim.feedback_pkts"} {
			s += fmt.Sprintf(" %s=%v", name, w.Traced.Metrics[name])
		}
	}
	return s
}

// sameness says whether every run of both sets, seed for seed, agrees on
// what of extracts.
func sameness(a, b []report, workload string, of func(workloadReport) string) string {
	bySeed := map[int64]string{}
	for _, r := range append(append([]report(nil), a...), b...) {
		for _, w := range r.Workloads {
			if w.Name != workload {
				continue
			}
			got := of(w)
			if prev, ok := bySeed[r.Seed]; ok && prev != got {
				return "DIFFERS"
			}
			bySeed[r.Seed] = got
		}
	}
	return "same"
}
