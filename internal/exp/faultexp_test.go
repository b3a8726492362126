package exp

import (
	"context"
	"errors"
	"testing"

	"tfrc/internal/faults"
	"tfrc/internal/sim"
)

// TestFlapRecovery asserts the flap preset's bounded-recovery
// property: after four half-second outages the flows regain at least
// 0.9× their pre-fault share of the bottleneck.
func TestFlapRecovery(t *testing.T) {
	pr := faultPhasePresets["flap"]()
	res := runWith[*FaultPhaseResult](t, "faultphase", &pr, 1)
	if len(res.Phases) != 3 {
		t.Fatalf("got %d phases, want before/during/after", len(res.Phases))
	}
	before, recovered := res.Phases[0], res.Phases[2]
	if recovered.TFRCFrac < 0.9*before.TFRCFrac {
		t.Errorf("TFRC recovered to %.3f of capacity, want ≥ 0.9×%.3f", recovered.TFRCFrac, before.TFRCFrac)
	}
	tot := func(p FaultPhase) float64 { return p.TFRCFrac + p.TCPFrac }
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
	res := runWith[*ChaosResult](t, "chaos", &pr, 1)
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
