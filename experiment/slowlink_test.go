package experiment_test

import (
	"bytes"
	"testing"

	"tfrc/experiment"
)

// slowLinkCases are parameter overlays whose bottleneck buffer comes out
// at the 10-packet floor (links below 0.88 Mb/s; for ccfair, bandwidth ×
// RTT of 80 kbit or less). The RED thresholds derived for that buffer
// used to be min = max = 5, which the queue refuses with a panic after
// Validate had accepted the parameters.
var slowLinkCases = []struct{ name, exp, overlay string }{
	{"bwstep", "faultphase", `{"LinkMbps": 0.5, "Duration": 24, "Faults": {"faults": [{"at": 8, "link": "rl->rr", "kind": "bandwidth", "bandwidth": 0.25e6}, {"at": 16, "link": "rl->rr", "kind": "bandwidth", "bandwidth": 0.5e6}]}}`},
	{"flap", "faultphase", `{"LinkMbps": 0.5, "Duration": 24, ` + flapFaults + `}`},
	{"blackout", "faultphase", `{"NTCP": 0, "NTFRC": 1, "LinkMbps": 0.5, "Duration": 30, ` + blackoutFaults + `}`},
	{"chaos", "chaos", `{"LinkMbps": 0.5, "Cells": 1, "Episodes": 3, "Duration": 25}`},
	{"fig6", "fig6", `{"LinkMbps": [0.5], "TotalFlows": [2], "Duration": 15, "MeasureTail": 8}`},
	{"ccfair", "ccfair", `{"LinkMbps": [1], "RTTs": [0.06], "Duration": 20, "Warmup": 5}`},
	{"ccfair-parkinglot", "ccfair", `{"Topology": "parkinglot", "Bottlenecks": 2, "Queue": "RED", "LinkMbps": [1], "RTTs": [0.06], "Duration": 20, "Warmup": 5}`},
}

// TestSlowLinksRun: every house-testbed experiment runs on a slow link,
// and its record has no NaN or Inf in it (encoding/json refuses those).
func TestSlowLinksRun(t *testing.T) {
	for _, tc := range slowLinkCases {
		t.Run(tc.name, func(t *testing.T) {
			d, p, err := overlaid(t, tc.exp, tc.overlay)
			if err != nil {
				t.Fatalf("overlay: %v", err)
			}
			res, err := experiment.Run(d, p)
			if err != nil {
				t.Fatal(err)
			}
			var record bytes.Buffer
			if err := experiment.WriteJSON(&record, d.Name, p, res); err != nil {
				t.Fatalf("result is not finite: %v", err)
			}
			res.Table(&record)
		})
	}
}

// FuzzParamsOverlay feeds arbitrary bytes to the -params decoder of
// every experiment: an overlay fails to decode, fails Validate, or
// yields parameters with at least one cell — it never panics.
func FuzzParamsOverlay(f *testing.F) {
	for _, tc := range goldenCases {
		f.Add(tc.overlay)
	}
	for _, tc := range slowLinkCases {
		f.Add(tc.overlay)
	}
	f.Fuzz(func(t *testing.T, overlay string) {
		for _, d := range builtins() {
			_, p, err := overlaid(t, d.Name, overlay)
			if err != nil || p.Validate() != nil {
				continue
			}
			if n, err := d.Grid.Cells(p); err != nil || n < 1 {
				t.Errorf("%s: valid overlay %q has %d cells (%v)", d.Name, overlay, n, err)
			}
		}
	})
}
