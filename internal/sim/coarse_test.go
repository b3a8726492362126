package sim_test

import (
	"testing"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/tfrcsim"
)

// TestTFRCCoarseTimersShareOneEvent runs a TFRC pair with its feedback
// and no-feedback timers on a 10 ms wheel for 60 s of a clean 2 Mb/s
// pipe: both wheel-backed timers share one wheel event, so the standing
// population is that event, the pacing timer and the link's in-flight
// events, bounded however many coarse timers exist. (An external test:
// tfrcsim imports sim, and Len is test-only.)
func TestTFRCCoarseTimersShareOneEvent(t *testing.T) {
	sched := sim.NewScheduler()
	nw := netsim.New(sched)
	a, b := nw.NewNode(), nw.NewNode()
	nw.Connect(a, b, 2e6, 0.020, func() netsim.Queue { return netsim.NewDropTail(200) })
	nw.BuildRoutes()
	cfg := tfrcsim.DefaultConfig()
	cfg.CoarseTimerTick = 0.010
	snd, _ := tfrcsim.Pair(nw, a, b, 1, 2, 0, cfg)
	snd.Start(0)
	sched.RunUntil(60)
	if snd.Feedbacks == 0 {
		t.Fatal("no feedback ever arrived")
	}
	if n := sched.Len(); n > 16 {
		t.Fatalf("scheduler holds %d events at end, want ≤ 16", n)
	}
}
