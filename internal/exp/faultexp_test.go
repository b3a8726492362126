package exp

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"tfrc/internal/faults"
	"tfrc/internal/sim"
)

// TestBlackoutGracefulDegradation is the acceptance test for the
// feedback-blackout soak: during a 15 s total feedback loss the sender
// must stay live (never a gap beyond what its own rate allows), halve
// down to at most one packet per RTO, respect the protocol floor, and
// climb back to ≥ RecoverFrac of the pre-fault goodput within the
// RTT-plus-ramp budget.
func TestBlackoutGracefulDegradation(t *testing.T) {
	res := RunBlackout(DefaultBlackout())
	rep := res.Report
	if !rep.Live {
		t.Errorf("sender went silent during the outage: %s", rep)
	}
	if !rep.Degraded {
		t.Errorf("rate never degraded below one packet per RTO (%v B/s): %s",
			res.Params.RecoverFrac, rep)
	}
	if !rep.FloorKept {
		t.Errorf("rate fell through the one-packet-per-64 s floor: %s", rep)
	}
	if !rep.Recovered {
		t.Errorf("goodput did not recover in time: %s", rep)
	}
	if res.NoFbCuts == 0 {
		t.Error("no no-feedback cuts during a 15 s feedback blackout")
	}
	if res.RTO <= 0 {
		t.Errorf("RTO = %v, want positive", res.RTO)
	}
	// The degradation bound itself: the checker compared against
	// PacketSize/RTO, so Degraded implies ≤ 1 packet per RTO. Sanity-check
	// the raw numbers agree.
	if rep.DegradedRate > 1000/res.RTO {
		t.Errorf("DegradedRate %v exceeds one packet per RTO (%v)", rep.DegradedRate, 1000/res.RTO)
	}
}

// TestFlapRecovery asserts the flap experiment's bounded-recovery
// property: after four half-second outages the flows regain at least
// 0.9× their pre-fault share of the bottleneck.
func TestFlapRecovery(t *testing.T) {
	res := RunFlap(DefaultFlap())
	if len(res.Phases) != 3 {
		t.Fatalf("got %d phases, want before/flapping/recovered", len(res.Phases))
	}
	before, recovered := res.Phases[0], res.Phases[2]
	if recovered.TFRCFrac < 0.9*before.TFRCFrac {
		t.Errorf("TFRC recovered to %.3f of capacity, want ≥ 0.9×%.3f", recovered.TFRCFrac, before.TFRCFrac)
	}
	tot := func(p FlapPhase) float64 { return p.TFRCFrac + p.TCPFrac }
	if tot(recovered) < 0.9*tot(before) {
		t.Errorf("aggregate recovered to %.3f, want ≥ 0.9×%.3f", tot(recovered), tot(before))
	}
}

// TestChaosSoakInvariants runs a reduced chaos soak and requires every
// cell to hold the graceful-degradation invariants.
func TestChaosSoakInvariants(t *testing.T) {
	pr := DefaultChaos()
	pr.Cells = 3
	pr.Duration = 30
	res := RunChaos(pr)
	if !res.OK {
		t.Fatalf("chaos soak violations: %v", res.Violations)
	}
	if res.Skipped != 0 {
		t.Fatalf("%d cells skipped outside any interruption", res.Skipped)
	}
	for i, c := range res.Cells {
		if !c.Ran {
			t.Fatalf("cell %d never ran", i)
		}
		if c.Faults == 0 {
			t.Errorf("cell %d drew an empty fault schedule", i)
		}
		if c.Hash == "" {
			t.Errorf("cell %d has no schedule hash", i)
		}
	}
}

// TestChaosByteIdenticalAcrossParallelism pins the determinism
// contract: the same chaos parameters must print byte-identically at
// any worker count, fault schedules and all.
func TestChaosByteIdenticalAcrossParallelism(t *testing.T) {
	pr := DefaultChaos()
	pr.Cells = 4
	pr.Duration = 25
	var seq, par bytes.Buffer
	runWith[*ChaosResult](t, "chaos", &pr, 1).Table(&seq)
	runWith[*ChaosResult](t, "chaos", &pr, 8).Table(&par)
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("parallel chaos output differs from sequential:\n--- sequential\n%s--- parallel\n%s",
			seq.String(), par.String())
	}
}

// TestInterruptSkipsRemainingCells cancels mid-sweep: RunExperiment
// must return ErrInterrupted together with the partial result, with the
// unreached cells marked skipped rather than fabricated.
func TestInterruptSkipsRemainingCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: every cell is skipped

	d, ok := Lookup("chaos")
	if !ok {
		t.Fatal("chaos experiment not registered")
	}
	pr := DefaultChaos()
	pr.Cells = 3
	pr.Duration = 25
	res, err := RunExperiment(d, &pr, RunOptions{Ctx: ctx})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	cr, ok := res.(*ChaosResult)
	if !ok {
		t.Fatalf("partial result type %T", res)
	}
	if cr.Skipped != pr.Cells {
		t.Fatalf("Skipped = %d, want all %d cells", cr.Skipped, pr.Cells)
	}
	for i, c := range cr.Cells {
		if c.Ran || len(c.Violations) != 0 {
			t.Fatalf("skipped cell %d carries results: %+v", i, c)
		}
	}
}

// TestChaosScheduleDrawsAreValid checks that every schedule the chaos
// generator can draw passes Validate — the generator and the validator
// must agree on the fault vocabulary.
func TestChaosScheduleDrawsAreValid(t *testing.T) {
	pr := DefaultChaos()
	for i := 0; i < 20; i++ {
		seed := pr.Seed + int64(i)*9973
		sched := sim.NewScheduler()
		sc := chaosSchedule(sched.NewRand(seed), pr, seed, pr.LinkMbps*1e6, 0.025)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d drew an invalid schedule: %v", seed, err)
		}
		if len(sc.Faults) == 0 {
			t.Fatalf("seed %d drew an empty schedule", seed)
		}
		// Every episode heals: fault kinds pair off.
		var down, up int
		for _, f := range sc.Faults {
			switch f.Kind {
			case faults.LinkDown, faults.Blackhole:
				down++
			case faults.LinkUp, faults.BlackholeOff:
				up++
			}
		}
		if down != up {
			t.Fatalf("seed %d: %d outages but %d heals", seed, down, up)
		}
	}
}
