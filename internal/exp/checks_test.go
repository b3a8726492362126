package exp

import (
	"errors"
	"testing"

	"tfrc/internal/netsim"
)

// TestChecksVocabulary holds each check shape to its boundary and to the
// exact text of its message.
func TestChecksVocabulary(t *testing.T) {
	cases := []struct {
		name string
		run  func(v *checks)
		want string // "" means accepted
	}{
		{"positive accepts", func(v *checks) { positive(v, "X", 1e-9) }, ""},
		{"positive rejects zero", func(v *checks) { positive(v, "LinkMbps", 0.0) }, "LinkMbps must be positive, got 0"},
		{"positive rejects negative", func(v *checks) { positive(v, "LinkMbps", -1.0) }, "LinkMbps must be positive, got -1"},
		{"positive int", func(v *checks) { positive(v, "PacketSize", 0) }, "PacketSize must be positive, got 0"},
		{"positive names the element", func(v *checks) { positive(v, "Timescales", []float64{1, -2, -3}...) }, "Timescales must be positive, got -2"},
		{"positive passes an empty slice", func(v *checks) { positive(v, "Timescales", []float64{}...) }, ""},
		{"nonNegative accepts zero", func(v *checks) { nonNegative(v, "Seeds", 0) }, ""},
		{"nonNegative rejects", func(v *checks) { nonNegative(v, "Seeds", -1) }, "Seeds must be non-negative, got -1"},
		{"nonNegative float", func(v *checks) { nonNegative(v, "MiceLoad", -0.5) }, "MiceLoad must be non-negative, got -0.5"},
		{"atLeast accepts the bound", func(v *checks) { atLeast(v, "Runs", 1, 1) }, ""},
		{"atLeast rejects", func(v *checks) { atLeast(v, "Runs", 1, 0) }, "Runs must be at least 1, got 0"},
		{"atLeast names the element", func(v *checks) { atLeast(v, "TotalFlows", 2, []int{4, 1, 0}...) }, "TotalFlows must be at least 2, got 1"},
		{"nonEmpty accepts", func(v *checks) { nonEmpty(v, "Sources", 1) }, ""},
		{"nonEmpty rejects nil", func(v *checks) { nonEmpty(v, "Sources", len([]int(nil))) }, "Sources must be non-empty"},
		{"nonEmpty rejects empty", func(v *checks) { nonEmpty(v, "Sources", len([]int{})) }, "Sources must be non-empty"},
		{"window accepts zero start", func(v *checks) { window(v, "Warmup", 0, "Duration", 10) }, ""},
		{"window rejects start == end", func(v *checks) { window(v, "Warmup", 10, "Duration", 10) }, "need 0 <= Warmup < Duration, got Warmup=10 Duration=10"},
		{"window rejects negative start", func(v *checks) { window(v, "Warmup", -1, "Duration", 10) }, "need 0 <= Warmup < Duration, got Warmup=-1 Duration=10"},
		{"window rejects zero end", func(v *checks) { window(v, "Warmup", 0, "Duration", 0) }, "need 0 <= Warmup < Duration, got Warmup=0 Duration=0"},
		{"check accepts", func(v *checks) { check(v, true, "never %d", 1) }, ""},
		{"fail formats strings", func(v *checks) { v.fail("unknown topology %q", "ring") }, `unknown topology "ring"`},
		{"check formats", func(v *checks) { check(v, false, "flap window [%v, %v)", 1, 2) }, "flap window [1, 2)"},
		{"first error wins", func(v *checks) {
			positive(v, "A", 1)
			positive(v, "B", 0)
			nonNegative(v, "C", -1)
			v.fail("D")
		}, "B must be positive, got 0"},
	}
	for _, c := range cases {
		var v checks
		c.run(&v)
		got := ""
		if v.err != nil {
			got = v.err.Error()
		}
		if got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}

// TestFailWraps: an error passed under %w stays reachable, as ccfair's
// controller-config checks rely on.
func TestFailWraps(t *testing.T) {
	inner := errors.New("inner")
	var v checks
	v.fail("CCA: %w", inner)
	if !errors.Is(v.err, inner) {
		t.Fatalf("%v does not wrap the inner error", v.err)
	}
}

// TestValidatePassesWithoutAllocating: Validate runs before every run
// and, under the shard runner, once per cell; a parameter set that
// passes must cost no allocation, or the checks show up in the
// benchmark's allocs_per_cell.
func TestValidatePassesWithoutAllocating(t *testing.T) {
	for _, d := range Experiments() {
		p := d.Params()
		if n := testing.AllocsPerRun(10, func() { _ = p.Validate() }); n != 0 {
			t.Errorf("%s: a passing Validate allocates %v times", d.Name, n)
		}
	}
	sc := Scenario{NTCP: 1, NTFRC: 1, BottleneckBW: 1e6, Duration: 10, Queue: netsim.QueueRED}
	if n := testing.AllocsPerRun(10, func() { _ = sc.Validate() }); n != 0 {
		t.Errorf("Scenario: a passing Validate allocates %v times", n)
	}
}
