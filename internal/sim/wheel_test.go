package sim

import (
	"math"
	"math/rand"
	"testing"
)

func TestWheelBatchesAndOrders(t *testing.T) {
	s := NewScheduler()
	w := s.Wheel(0.01)
	var fired []int
	mk := func(id int) *Timer {
		tm := new(Timer)
		tm.Init(s, func() { fired = append(fired, id) })
		tm.Coarse(w)
		return tm
	}
	// Three timers land in the same tick; firing order is arming order.
	mk(0).Reset(0.0041)
	mk(1).Reset(0.0072)
	mk(2).Reset(0.0013)
	// One lands a tick later.
	mk(3).Reset(0.011)
	s.Run()
	if len(fired) != 4 || fired[0] != 0 || fired[1] != 1 || fired[2] != 2 || fired[3] != 3 {
		t.Fatalf("fired %v, want [0 1 2 3]", fired)
	}
	// All of tick 1 fired from a single scheduler event at 0.01.
	if s.Now() != 0.02 {
		t.Fatalf("clock = %v, want 0.02", s.Now())
	}
}

func TestWheelNeverFiresEarly(t *testing.T) {
	s := NewScheduler()
	w := s.Wheel(0.01)
	r := rand.New(rand.NewSource(3))
	type armed struct {
		deadline float64
		firedAt  float64
	}
	timers := make([]*armed, 200)
	for i := range timers {
		a := &armed{deadline: r.Float64() * 2}
		timers[i] = a
		tm := new(Timer)
		tm.Init(s, func() { a.firedAt = s.Now() })
		tm.Coarse(w)
		tm.Reset(a.deadline) // the clock is at 0
	}
	s.Run()
	for i, a := range timers {
		if a.firedAt == 0 && a.deadline > 0 {
			t.Fatalf("timer %d never fired (deadline %v)", i, a.deadline)
		}
		if a.firedAt < a.deadline {
			t.Fatalf("timer %d fired at %v, before deadline %v", i, a.firedAt, a.deadline)
		}
		if a.firedAt-a.deadline > 0.01+1e-9 {
			t.Fatalf("timer %d fired %v late (tick 0.01)", i, a.firedAt-a.deadline)
		}
	}
}

func TestWheelStopAndRearm(t *testing.T) {
	s := NewScheduler()
	w := s.Wheel(0.01)
	fired := 0
	tm := new(Timer)
	tm.Init(s, func() { fired++ })
	tm.Coarse(w)

	tm.Reset(0.05)
	if !tm.Pending() {
		t.Fatal("armed coarse timer not Pending")
	}
	tm.Stop()
	if tm.Pending() {
		t.Fatal("stopped coarse timer still Pending")
	}
	s.Run()
	if fired != 0 {
		t.Fatalf("stopped coarse timer fired %d times", fired)
	}

	// Re-arm supersedes: only the second deadline fires. The clock sits
	// at 0.05 (the empty wheel event for the stopped timer still ran),
	// so Reset(0.08) means an absolute deadline of 0.13.
	tm.Reset(0.03)
	tm.Reset(0.08)
	s.Run()
	if fired != 1 {
		t.Fatalf("re-armed timer fired %d times, want 1", fired)
	}
	if got := s.Now(); math.Abs(got-0.13) > 1e-12 {
		t.Fatalf("fired at %v, want 0.13", got)
	}
}

func TestWheelRearmFromCallback(t *testing.T) {
	// A periodic coarse timer re-arming itself from its own callback —
	// including into the tick being processed — must keep firing.
	s := NewScheduler()
	w := s.Wheel(0.01)
	n := 0
	var tm Timer
	tm.Init(s, func() {
		n++
		if n < 50 {
			tm.Reset(0.01)
		}
	})
	tm.Coarse(w)
	tm.Reset(0.01)
	s.Run()
	if n != 50 {
		t.Fatalf("periodic coarse timer ran %d times, want 50", n)
	}
}

func TestWheelManyTimersOneEvent(t *testing.T) {
	// The point of the wheel: N timers sharing a tick occupy one
	// scheduler queue entry, not N.
	s := NewScheduler()
	w := s.Wheel(0.01)
	const n = 10_000
	fired := 0
	for i := 0; i < n; i++ {
		tm := new(Timer)
		tm.Init(s, func() { fired++ })
		tm.Coarse(w)
		tm.Reset(0.005)
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("queue holds %d events for %d coarse timers, want 1", got, n)
	}
	s.Run()
	if fired != n {
		t.Fatalf("fired %d of %d coarse timers", fired, n)
	}
}

func TestWheelSurvivesSchedulerReset(t *testing.T) {
	s := NewScheduler()
	w := s.Wheel(0.01)
	leak := 0
	tm := new(Timer)
	tm.Init(s, func() { leak++ })
	tm.Coarse(w)
	tm.Reset(0.05)

	s.Reset()
	if w2 := s.Wheel(0.01); w2 != w {
		t.Fatal("Reset dropped the wheel identity")
	}
	// The pre-Reset arming must be gone entirely.
	fired := 0
	tm2 := new(Timer)
	tm2.Init(s, func() { fired++ })
	tm2.Coarse(w)
	tm2.Reset(0.02)
	s.Run()
	if leak != 0 {
		t.Fatalf("pre-Reset coarse timer fired %d times after Reset", leak)
	}
	if fired != 1 {
		t.Fatalf("post-Reset coarse timer fired %d times, want 1", fired)
	}
}

func TestWheelDeterminism(t *testing.T) {
	run := func() []float64 {
		s := NewScheduler()
		w := s.Wheel(0.02)
		r := rand.New(rand.NewSource(11))
		var trace []float64
		var timers []*Timer
		for i := 0; i < 64; i++ {
			tm := &Timer{}
			tm.InitArg(s, func(any) { trace = append(trace, s.Now()) }, nil)
			tm.Coarse(w)
			timers = append(timers, tm)
			tm.Reset(r.Float64())
		}
		for op := 0; op < 500; op++ {
			s.Step()
			i := r.Intn(len(timers))
			switch r.Intn(3) {
			case 0:
				timers[i].Stop()
			default:
				timers[i].Reset(r.Float64())
			}
		}
		s.Run()
		return trace
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// BenchmarkWheelResidency measures the wheel's core win: arming cost
// with a large standing timer population, versus exact timers that each
// hold a queue entry.
func BenchmarkWheelTimers(b *testing.B) {
	s := NewScheduler()
	w := s.Wheel(0.01)
	const n = 100_000
	fn := func(any) {}
	timers := make([]Timer, n)
	for i := range timers {
		timers[i].InitArg(s, fn, nil)
		timers[i].Coarse(w)
		timers[i].Reset(0.5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timers[i%n].Reset(0.5)
	}
}
