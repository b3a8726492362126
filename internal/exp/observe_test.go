package exp

import (
	"testing"

	"tfrc/internal/sim"
)

// TestReadingTheReceiverDoesNotSteerIt runs Figure 2's pipe twice, once
// reading the receiver's loss event rate every round-trip time and once
// not. Watching a flow must not change it: the sender's per-RTT rates and
// its packet count must be equal.
func TestReadingTheReceiverDoesNotSteerIt(t *testing.T) {
	pr := DefaultFig02()
	run := func(observe bool) (rates []float64, sent int64) {
		sched := sim.NewScheduler()
		snd, rcv, drop := periodicLossPipe(sched, pr.RTT, int(1/pr.P1))
		sched.At(pr.T1, func() { drop.every = int(1 / pr.P2) })
		sched.At(pr.T2, func() { drop.every = int(1 / pr.P3) })
		var sample func()
		sample = func() {
			if observe {
				_ = rcv.P()
			}
			rates = append(rates, snd.Rate())
			sched.After(pr.RTT, sample)
		}
		sched.After(pr.RTT, sample)
		snd.Start(0)
		sched.RunUntil(pr.Duration)
		return rates, snd.Sent
	}
	quiet, quietSent := run(false)
	watched, watchedSent := run(true)
	if len(quiet) != len(watched) {
		t.Fatalf("%d vs %d rate samples", len(quiet), len(watched))
	}
	differ := 0
	for i := range quiet {
		if quiet[i] != watched[i] {
			differ++
		}
	}
	if differ > 0 || quietSent != watchedSent {
		t.Fatalf("reading p every RTT changed %d of %d rate samples; Sent %d unobserved vs %d observed",
			differ, len(quiet), quietSent, watchedSent)
	}
}
