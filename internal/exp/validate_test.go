package exp

import (
	"strings"
	"testing"

	"tfrc/internal/netsim"
)

// TestDefaultsValidate: every registered experiment's default and
// preset parameter sets must pass their own validation.
func TestDefaultsValidate(t *testing.T) {
	for _, d := range Experiments() {
		if err := d.Params().Validate(); err != nil {
			t.Errorf("%s: default params invalid: %v", d.Name, err)
		}
		for name := range d.Presets {
			p, err := d.PresetParams(name)
			if err != nil {
				t.Fatalf("%s: preset %s: %v", d.Name, name, err)
			}
			if err := p.Validate(); err != nil {
				t.Errorf("%s: preset %s params invalid: %v", d.Name, name, err)
			}
		}
	}
}

// TestValidateCatchesBadParams: the mistakes that used to produce empty
// tables silently must now be rejected with a diagnostic.
func TestValidateCatchesBadParams(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		want string // substring of the expected error
	}{
		{"fig2 loss out of range", &Fig02Params{P1: 2, P2: 0.1, P3: 0.1, T1: 1, T2: 2, Duration: 3, RTT: 0.05}, "loss rates"},
		{"fig2 switch order", &Fig02Params{P1: 0.1, P2: 0.1, P3: 0.1, T1: 5, T2: 2, Duration: 3, RTT: 0.05}, "T1 < T2"},
		{"fig3 empty buffers", &Fig03Params{Bandwidth: 1e6, BaseRTT: 0.05, Duration: 10, BinWidth: 0.2}, "BufferSizes"},
		{"fig3 negative duration", func() Params { p := DefaultFig03(); p.Duration = -5; return &p }(), "Duration"},
		{"fig5 empty grid", &Fig05Params{RTT: 0.1, PacketSize: 1000}, "PLoss"},
		{"fig6 zero flows", func() Params { p := DefaultFig06(); p.TotalFlows = []int{0}; return &p }(), "at least 2"},
		{"fig6 tail exceeds duration", func() Params { p := DefaultFig06(); p.MeasureTail = p.Duration + 1; return &p }(), "MeasureTail"},
		{"fig7 one flow", func() Params { p := DefaultFig07(); p.TotalFlows = []int{1}; return &p }(), "at least 2"},
		{"fig8 no queues", &Fig08GridParams{Flows: 32}, "Queues"},
		{"fig8 single flow", func() Params { p := DefaultFig08Grid(); p.Flows = 1; return &p }(), "at least 2"},
		{"fig9 zero runs", func() Params { p := DefaultFig09(); p.Runs = 0; return &p }(), "Runs"},
		{"fig9 one flow each", func() Params { p := DefaultFig09(); p.FlowsEach = 1; return &p }(), "FlowsEach"},
		{"fig11 no sources", func() Params { p := DefaultFig11(); p.Sources = nil; return &p }(), "Sources"},
		{"fig14 zero queue", func() Params { p := DefaultFig14(); p.Queue = 0; return &p }(), "Queue"},
		{"fig15 negative duration", &Fig15Params{Duration: -1}, "Duration"},
		{"fig16 no timescales", &Fig16Params{Duration: 10}, "Timescales"},
		{"fig18 empty history", &Fig18Params{Duration: 10}, "HistorySizes"},
		{"fig19 switch past end", &Fig19Params{DropEveryBefore: 100, SwitchTime: 20, Duration: 10, RTT: 0.05}, "SwitchTime"},
		{"fig21 bad drop rate", &Fig21Params{DropRates: []float64{1.5}, RTT: 0.05}, "drop rates"},
		{"ccfair warmup past end", func() Params { p := DefaultCCFair(); p.Warmup = p.Duration; return &p }(), "Warmup"},
		{"faultphase fault past end", func() Params { p := DefaultFaultPhase(); p.Duration = p.Faults.Faults[1].At - 1; return &p }(), "Duration"},
		{"faultphase no flows", func() Params { p := DefaultFaultPhase(); p.NTCP, p.NTFRC = 0, 0; return &p }(), "at least one flow"},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted bad params", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestScenarioValidate covers the public scenario.Spec preset's checks.
func TestScenarioValidate(t *testing.T) {
	good := []Scenario{
		{NTCP: 1, NTFRC: 1, BottleneckBW: 1e6, Duration: 10},
		// A 10-packet RED buffer: the house thresholds used to come out
		// min = max = 5, which netsim refuses.
		{NTCP: 1, NTFRC: 1, BottleneckBW: 1e6, Duration: 10, Queue: netsim.QueueRED, QueueLimit: 10},
		{NTCP: 1, BottleneckBW: 1e6, Duration: 10, Queue: netsim.QueueRED, REDMin: 10, REDMax: 40},
		// DropTail never reads the thresholds.
		{NTCP: 1, BottleneckBW: 1e6, Duration: 10, REDMin: 40, REDMax: 10},
	}
	for i, sc := range good {
		if err := sc.Validate(); err != nil {
			t.Errorf("good scenario %d rejected: %v", i, err)
			continue
		}
		if res := RunScenario(sc); res.Utilization <= 0 || res.Utilization > 1 {
			t.Errorf("good scenario %d: utilization %v", i, res.Utilization)
		}
	}
	bad := []Scenario{
		{NTCP: -1, BottleneckBW: 1e6, Duration: 10},
		{NTCP: 1, Duration: 10},
		{NTCP: 1, BottleneckBW: 1e6},
		{NTCP: 1, BottleneckBW: 1e6, Duration: 10, Warmup: 10},
		{NTCP: 1, BottleneckBW: 1e6, Duration: 10, MiceLoad: -0.1},
		{NTCP: 1, BottleneckBW: 1e6, Duration: 10, BinWidth: -1},
		{NTCP: 1, BottleneckBW: 1e6, Duration: 10, QueueLimit: -5},
		{NTCP: 1, BottleneckBW: 1e6, Duration: 10, BottleneckDly: -0.01},
		{NTCP: 1, BottleneckBW: 1e6, Duration: 10, StaggerStarts: -1},
		{NTCP: 1, BottleneckBW: 1e6, Duration: 10, AccessDlyMin: 0.02, AccessDlyMax: 0.01},
		// RED thresholds netsim would panic on, or silently run with.
		{NTCP: 1, BottleneckBW: 1e6, Duration: 10, Queue: netsim.QueueRED, REDMin: 40, REDMax: 10},
		{NTCP: 1, BottleneckBW: 1e6, Duration: 10, Queue: netsim.QueueRED, REDMin: 30, REDMax: 30},
		{NTCP: 1, BottleneckBW: 1e6, Duration: 10, Queue: netsim.QueueRED, REDMin: -1},
		{NTCP: 1, BottleneckBW: 1e6, Duration: 10, REDMax: -1},
		// An explicit min against the defaulted max (half of 100).
		{NTCP: 1, BottleneckBW: 1e6, Duration: 10, Queue: netsim.QueueRED, QueueLimit: 100, REDMin: 60},
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("bad scenario %d accepted", i)
		}
	}
}

// TestRunExperimentValidates: the registry refuses to run invalid
// parameters.
func TestRunExperimentValidates(t *testing.T) {
	d, ok := Lookup("fig5")
	if !ok {
		t.Fatal("fig5 not registered")
	}
	p := d.Params().(*Fig05Params)
	p.PacketSize = 0
	if _, err := RunExperiment(d, p, RunOptions{}); err == nil {
		t.Fatal("RunExperiment accepted invalid params")
	}
}

func TestSuggest(t *testing.T) {
	for miss, want := range map[string]string{
		"fgi6":      "fig6",
		"faultphas": "faultphase",
		"ccfairs":   "ccfair",
	} {
		if got := Suggest(miss); got != want {
			t.Errorf("Suggest(%q) = %q, want %q", miss, got, want)
		}
	}
	if got := Suggest("totally-unrelated-name"); got != "" {
		t.Errorf("Suggest(unrelated) = %q, want no suggestion", got)
	}
}
