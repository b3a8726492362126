package netsim_test

import (
	"fmt"
	"testing"

	"tfrc/internal/faults"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
)

// TestLinkScheduleFiresDeterministically verifies that a fault schedule's
// bandwidth and delay steps change the link at exactly the declared
// instants, and that two identical runs observe identical event
// sequences. (An external test: faults imports netsim.)
func TestLinkScheduleFiresDeterministically(t *testing.T) {
	run := func() []string {
		var log []string
		sched := sim.NewScheduler()
		topo := netsim.NewTopology(sched, nil)
		ab, _ := topo.Link("a", "b", netsim.LinkSpec{
			Bandwidth: 8e6, Delay: 0.010,
			Queue: netsim.QueueDropTail, QueueLimit: 50,
		})
		steps := faults.Schedule{Faults: []faults.Fault{
			{At: 1, Link: "a->b", Kind: faults.BandwidthCollapse, Bandwidth: 2e6},
			{At: 2, Link: "a->b", Kind: faults.DelaySpike, Delay: 0.050},
			{At: 3, Link: "a->b", Kind: faults.BandwidthCollapse, Bandwidth: 8e6},
			{At: 3, Link: "a->b", Kind: faults.DelaySpike, Delay: 0.010},
		}}
		steps.Apply(topo)
		topo.Build()
		for _, at := range []float64{0.5, 1.5, 2.5, 3.5} {
			at := at
			sched.At(at, func() {
				log = append(log, fmt.Sprintf("%.1f bw=%.0f dly=%.3f", at, ab.Bandwidth(), ab.Delay()))
			})
		}
		sched.RunUntil(4)
		return log
	}
	got := run()
	want := []string{
		"0.5 bw=8000000 dly=0.010",
		"1.5 bw=2000000 dly=0.010",
		"2.5 bw=2000000 dly=0.050",
		"3.5 bw=8000000 dly=0.010",
	}
	if len(got) != len(want) {
		t.Fatalf("log = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("log[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// Determinism: a second run produces the identical observation log.
	again := run()
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("schedule not deterministic: %q vs %q", got[i], again[i])
		}
	}
}
