package experiment_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tfrc/experiment"
)

// goldenCases gives every registered experiment a small parameter
// overlay (JSON over the defaults, as "tfrcsim run -params" applies it)
// whose table and "-format json" record are pinned byte-for-byte in
// testdata/golden. Experiments with a replicate count appear twice, so
// both the single-seed pass-through and the mean ± CI reduction are
// pinned. The files were generated by the commit before the experiment
// kernel landed (the faultphase cases by the commit that folded the
// blackout, bwstep and flap experiments into it, every bwstep and flap
// number unchanged); UPDATE_GOLDEN=1 rewrites them.
var goldenCases = []struct{ name, exp, overlay string }{
	{"fig2", "fig2", `{"T1": 3, "T2": 5, "Duration": 8}`},
	{"fig3", "fig3", `{"BufferSizes": [4, 16], "Duration": 30, "Warmup": 10}`},
	{"fig4", "fig4", `{"BufferSizes": [4, 16], "Duration": 30, "Warmup": 10}`},
	{"fig5", "fig5", `{"PLoss": [0.01, 0.05, 0.1]}`},
	{"fig6", "fig6", `{"LinkMbps": [2], "TotalFlows": [2, 4], "Duration": 15, "MeasureTail": 8}`},
	{"fig6-seeds2", "fig6", `{"LinkMbps": [2], "TotalFlows": [2, 4], "Duration": 15, "MeasureTail": 8, "Seeds": 2}`},
	{"fig7", "fig7", `{"TotalFlows": [4, 8], "Duration": 15, "MeasureTail": 8}`},
	{"fig8", "fig8", `{"Flows": 4}`},
	{"fig8-seeds2", "fig8", `{"Flows": 4, "Seeds": 2}`},
	{"fig9", "fig9", `{"Runs": 2, "FlowsEach": 2, "Duration": 20, "Warmup": 5, "Timescales": [0.5, 2]}`},
	{"fig11", "fig11", `{"Sources": [10, 20], "Duration": 30, "Warmup": 10, "Timescales": [0.5, 2], "Runs": 2}`},
	{"fig14", "fig14", `{"Flows": 4, "Stagger": 2, "Duration": 6}`},
	{"fig14-seeds2", "fig14", `{"Flows": 4, "Stagger": 2, "Duration": 6, "Seeds": 2}`},
	{"fig15", "fig15", `{"Duration": 30}`},
	{"fig15-seeds2", "fig15", `{"Duration": 30, "Seeds": 2}`},
	{"fig16", "fig16", `{"Timescales": [1, 5], "Duration": 30}`},
	{"fig18", "fig18", `{"HistorySizes": [2, 8], "Duration": 30}`},
	{"fig19", "fig19", `{"SwitchTime": 5, "Duration": 7}`},
	{"fig20", "fig20", `{"SwitchTime": 5, "Duration": 7}`},
	{"fig21", "fig21", `{"DropRates": [0.01, 0.1]}`},
	{"blackout", "faultphase", `{"NTCP": 0, "NTFRC": 1, "LinkMbps": 4, "Duration": 30, ` + blackoutFaults + `}`},
	{"bwstep", "faultphase", `{"Duration": 24, ` + stepFaults + `}`},
	{"bwstep-seeds2", "faultphase", `{"Duration": 24, "Seeds": 2, ` + stepFaults + `}`},
	{"bwstep-default", "faultphase", `{}`},
	{"bwstep-seeds3", "faultphase", `{"Seeds": 3}`},
	{"ccfair", "ccfair", `{"RTTs": [0.06, 0.12], "LinkMbps": [4, 8], "Duration": 20, "Warmup": 5}`},
	{"ccfair-seeds2", "ccfair", `{"RTTs": [0.06, 0.12], "LinkMbps": [4, 8], "Duration": 20, "Warmup": 5, "Seeds": 2}`},
	{"ccfair-parkinglot", "ccfair", `{"Topology": "parkinglot", "Bottlenecks": 3, "RTTs": [0.06, 0.12], "LinkMbps": [4], "Duration": 20, "Warmup": 5}`},
	{"chaos", "chaos", `{"Cells": 3, "Episodes": 3, "Duration": 25}`},
	{"flap", "faultphase", `{"Duration": 24, ` + flapFaults + `}`},
	{"manyflows", "manyflows", `{"Flows": [50, 200], "Duration": 6, "Warmup": 3}`},
}

// The faultphase cases' fault programs: the bottleneck halved over
// [8, 16) s, its feedback direction blackholed over [10, 18) s, and two
// held 0.5 s outages 3 s apart from 8 s.
const (
	stepFaults     = `"Faults": {"faults": [{"at": 8, "link": "rl->rr", "kind": "bandwidth", "bandwidth": 4e6}, {"at": 16, "link": "rl->rr", "kind": "bandwidth", "bandwidth": 8e6}]}`
	blackoutFaults = `"Faults": {"faults": [{"at": 10, "link": "rr->rl", "kind": "blackhole"}, {"at": 18, "link": "rr->rl", "kind": "blackhole-off"}]}`
	flapFaults     = `"Faults": {"faults": [{"at": 8, "link": "rl->rr", "kind": "down", "drain": true}, {"at": 8.5, "link": "rl->rr", "kind": "up"}, {"at": 11, "link": "rl->rr", "kind": "down", "drain": true}, {"at": 11.5, "link": "rl->rr", "kind": "up"}]}`
)

// overlaid returns the experiment's defaults with the JSON overlay
// applied the way "tfrcsim run -params" applies it.
func overlaid(t testing.TB, name, overlay string) (experiment.Descriptor, experiment.Params, error) {
	d, err := experiment.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	p := d.Params()
	dec := json.NewDecoder(strings.NewReader(overlay))
	dec.DisallowUnknownFields()
	return d, p, dec.Decode(p)
}

// TestGoldenEveryExperiment runs each case through the registry the way
// the CLI does and compares both output formats with the goldens.
func TestGoldenEveryExperiment(t *testing.T) {
	covered := map[string]bool{}
	for _, tc := range goldenCases {
		covered[tc.exp] = true
		t.Run(tc.name, func(t *testing.T) {
			d, p, err := overlaid(t, tc.exp, tc.overlay)
			if err != nil {
				t.Fatalf("overlay: %v", err)
			}
			res, err := experiment.Run(d, p)
			if err != nil {
				t.Fatal(err)
			}
			var table, record bytes.Buffer
			res.Table(&table)
			if err := experiment.WriteJSON(&record, d.Name, p, res); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, tc.name+".table", table.Bytes())
			compareGolden(t, tc.name+".json", record.Bytes())
		})
	}
	for _, d := range builtins() {
		if !covered[d.Name] {
			t.Errorf("registered experiment %q has no golden case", d.Name)
		}
	}
}

// builtins is the registry without the "user-" experiments other tests
// of this package add.
func builtins() []experiment.Descriptor {
	var out []experiment.Descriptor
	for _, d := range experiment.List() {
		if !strings.HasPrefix(d.Name, "user-") {
			out = append(out, d)
		}
	}
	return out
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	comparePinned(t, filepath.Join("golden", name), got)
}

// comparePinned holds got to the file at testdata/name; UPDATE_GOLDEN=1
// rewrites the file first.
func comparePinned(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("updating golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden (%d bytes, want %d); first difference at byte %d",
			name, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
