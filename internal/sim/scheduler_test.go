package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
	"weak"
)

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler()
	var got []float64
	times := []float64{5, 1, 3, 2, 4, 0.5, 2.5}
	for _, at := range times {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.Run()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != len(times) {
		t.Fatalf("fired %d events, want %d", len(got), len(times))
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %v, want 5", s.Now())
	}
}

func TestSchedulerFIFOAtEqualTimes(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(1.0, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: got[%d] = %d", i, v)
		}
	}
}

func TestSchedulerAfterUsesCurrentTime(t *testing.T) {
	s := NewScheduler()
	var fired float64
	s.At(2, func() {
		s.After(3, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 5 {
		t.Fatalf("After fired at %v, want 5", fired)
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	e := s.At(1, func() { ran = true })
	s.Cancel(e)
	s.Run()
	if ran {
		t.Fatal("cancelled event still fired")
	}
	// Double-cancel and cancel-after-fire must be safe.
	s.Cancel(e)
	e2 := s.At(2, func() {})
	s.Run()
	s.Cancel(e2)
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=2.5, want 2", len(fired))
	}
	if s.Now() != 2.5 {
		t.Fatalf("clock = %v, want 2.5", s.Now())
	}
	s.RunUntil(10)
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
	if s.Now() != 10 {
		t.Fatalf("clock = %v, want 10", s.Now())
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(5, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(1, func() {})
}

func TestSchedulerEventReuse(t *testing.T) {
	// Recycled Event structs must not resurrect stale callbacks.
	s := NewScheduler()
	bad := false
	e := s.At(1, func() { bad = true })
	s.Cancel(e)
	ok := false
	s.At(1, func() { ok = true })
	s.Run()
	if bad || !ok {
		t.Fatalf("event reuse broken: bad=%v ok=%v", bad, ok)
	}
}

func TestSchedulerStaleHandleCannotCancelReusedEvent(t *testing.T) {
	// Regression: the free list recycles Event structs, so a handle kept
	// past its event's firing may point at a struct reused by a later,
	// unrelated event. Cancelling through the stale handle must not touch
	// the new event.
	s := NewScheduler()
	stale := s.At(1, func() {})
	s.Run() // fires; the Event struct goes back on the free list

	ran := false
	fresh := s.At(2, func() { ran = true }) // reuses the recycled struct
	if stale.Scheduled() {
		t.Fatal("stale handle reports Scheduled after its event fired")
	}
	s.Cancel(stale) // must be a no-op
	if !fresh.Scheduled() {
		t.Fatal("stale Cancel killed an unrelated later event")
	}
	s.Run()
	if !ran {
		t.Fatal("reused event did not fire")
	}

	// Same via cancellation: a handle invalidated by Cancel must not be
	// able to cancel the struct's next occupant either.
	cancelled := s.At(3, func() {})
	s.Cancel(cancelled)
	ran2 := false
	fresh2 := s.At(4, func() { ran2 = true })
	s.Cancel(cancelled)
	if !fresh2.Scheduled() {
		t.Fatal("double Cancel through a stale handle killed a new event")
	}
	s.Run()
	if !ran2 {
		t.Fatal("event after stale double-cancel did not fire")
	}
}

func TestSchedulerAtArg(t *testing.T) {
	s := NewScheduler()
	var got []int
	record := func(x any) { got = append(got, x.(int)) }
	s.AtArg(2, record, 2)
	s.AfterArg(1, record, 1)
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("AtArg order/args wrong: %v", got)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.AfterArg(1, record, 7)
		s.Step()
	}); allocs > 0 {
		t.Fatalf("AtArg steady state allocates %v per event, want 0", allocs)
	}
}

// TestSchedulerClosureAdapters: At, After and a Timer's Init are adapters
// over the arg form — the func() rides in the event's arg slot — so with
// a prebuilt closure they allocate nothing per event, and they fire FIFO
// with AtArg events scheduled for the same instant.
func TestSchedulerClosureAdapters(t *testing.T) {
	s := NewScheduler()
	var got []int
	viaArg := func(x any) { got = append(got, x.(int)) }
	s.At(1, func() { got = append(got, 0) })
	s.AtArg(1, viaArg, 1)
	s.After(1, func() { got = append(got, 2) })
	s.AfterArg(1, viaArg, 3)
	var tm0 Timer
	tm0.Init(s, func() { got = append(got, 4) })
	tm0.Reset(1)
	s.Run()
	if !slices.Equal(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("equal-time At/AtArg/After/AfterArg/Timer fired as %v, want insertion order", got)
	}

	fired := 0
	fn := func() { fired++ }
	tm := new(Timer)
	tm.Init(s, fn)
	allocs := testing.AllocsPerRun(100, func() {
		s.At(s.Now()+1, fn)
		s.After(1, fn)
		tm.Reset(1)
		tm.Reset(2) // re-arm: cancels and schedules again
		s.Run()
	})
	if allocs > 0 {
		t.Fatalf("At/After/Timer.Reset with a prebuilt closure allocate %v per run, want 0", allocs)
	}
	if fired != 3*101 {
		t.Fatalf("fired %d callbacks, want %d", fired, 3*101)
	}
}

func TestSchedulerPropertyOrdered(t *testing.T) {
	// Property: for any set of event times, firing order is sorted.
	f := func(raw []uint16) bool {
		s := NewScheduler()
		var got []float64
		for _, v := range raw {
			at := float64(v) / 100
			s.At(at, func() { got = append(got, at) })
		}
		s.Run()
		return sort.Float64sAreSorted(got) && len(got) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerResetStop(t *testing.T) {
	s := NewScheduler()
	fired, firedAt := 0, 0.0
	tm := new(Timer)
	tm.Init(s, func() { fired++; firedAt = s.Now() })
	tm.Reset(1)
	tm.Reset(2) // supersedes the first arm
	s.Run()
	if fired != 1 || firedAt != 2 {
		t.Fatalf("timer fired %d times, last at %v; want once, at 2", fired, firedAt)
	}
	if tm.Pending() {
		t.Fatal("timer still pending after fire")
	}
	tm.Reset(1)
	tm.Stop()
	s.Run()
	if fired != 1 {
		t.Fatalf("stopped timer fired; count = %d", fired)
	}
	if tm.Pending() {
		t.Fatal("stopped timer still pending")
	}
}

func TestTimerRearmFromCallback(t *testing.T) {
	s := NewScheduler()
	n := 0
	var tm Timer
	tm.Init(s, func() {
		n++
		if n < 5 {
			tm.Reset(1)
		}
	})
	tm.Reset(1)
	s.Run()
	if n != 5 {
		t.Fatalf("periodic rearm ran %d times, want 5", n)
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %v, want 5", s.Now())
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRandUniformRange(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(0.080, 0.120)
		if v < 0.080 || v >= 0.120 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestRandParetoMean(t *testing.T) {
	r := NewRand(7)
	const mean, alpha, n = 1.0, 1.5, 400000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Pareto(mean, alpha)
	}
	got := sum / n
	// Heavy tail converges slowly; allow 15%.
	if got < mean*0.85 || got > mean*1.15 {
		t.Fatalf("Pareto sample mean = %v, want ≈ %v", got, mean)
	}
}

func TestRandParetoShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pareto with alpha ≤ 1 did not panic")
		}
	}()
	NewRand(1).Pareto(1, 1)
}

func TestRandExponentialMean(t *testing.T) {
	r := NewRand(3)
	const mean, n = 2.0, 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential(mean)
	}
	if got := sum / n; got < mean*0.97 || got > mean*1.03 {
		t.Fatalf("Exponential sample mean = %v, want ≈ %v", got, mean)
	}
}

func TestRandBernoulli(t *testing.T) {
	r := NewRand(9)
	hits := 0
	const n, p = 100000, 0.3
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if got < p-0.01 || got > p+0.01 {
		t.Fatalf("Bernoulli rate = %v, want ≈ %v", got, p)
	}
}

// --- Differential tests: the calendar queue vs a naive sorted-slice queue ---

// refEvent is one event in the reference implementation: a slice kept
// sorted by (time, sequence) with linear insertion, too slow to use but
// trivially correct.
type refEvent struct {
	at  float64
	seq uint64
	id  int
}

type refQueue struct {
	events []refEvent
	seq    uint64
}

func (q *refQueue) schedule(at float64, id int) uint64 {
	e := refEvent{at: at, seq: q.seq, id: id}
	q.seq++
	i := len(q.events)
	for i > 0 {
		p := q.events[i-1]
		if p.at < e.at || (p.at == e.at && p.seq < e.seq) {
			break
		}
		i--
	}
	q.events = append(q.events, refEvent{})
	copy(q.events[i+1:], q.events[i:])
	q.events[i] = e
	return e.seq
}

func (q *refQueue) cancel(seq uint64) {
	for i, e := range q.events {
		if e.seq == seq {
			q.events = append(q.events[:i], q.events[i+1:]...)
			return
		}
	}
}

func (q *refQueue) pop() (refEvent, bool) {
	if len(q.events) == 0 {
		return refEvent{}, false
	}
	e := q.events[0]
	q.events = q.events[1:]
	return e, true
}

// refSched is the reference scheduler: a refQueue under a clock, firing
// in (time, sequence) order by construction. fired logs each firing's
// time and id.
type refSched struct {
	refQueue
	now   float64
	fired []refEvent
}

func (r *refSched) after(d float64, id int) uint64 { return r.schedule(r.now+d, id) }

func (r *refSched) step() {
	if e, ok := r.pop(); ok {
		r.now = e.at
		r.fired = append(r.fired, e)
	}
}

func (r *refSched) runUntil(end float64) {
	for len(r.events) > 0 && r.events[0].at <= end {
		r.step()
	}
	r.now = max(r.now, end)
}

func (r *refSched) run() {
	for len(r.events) > 0 {
		r.step()
	}
}

// TestSchedulerDifferential drives the scheduler and the naive
// sorted-slice reference through a long randomized interleaving of At,
// After, Cancel, stale-handle Cancel, Step, and RunUntil, checking that
// every firing matches the reference in both identity and time, that
// Scheduled agrees with the reference's liveness, and that stale handles
// never disturb live events.
func TestSchedulerDifferential(t *testing.T) {
	t.Run("calendar", testSchedulerDifferential)
}

func testSchedulerDifferential(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		ref := &refQueue{}

		type live struct {
			h   Handle
			seq uint64
			id  int
		}
		var pending []live
		var stale []Handle
		var fired []int
		nextID := 0

		schedule := func() {
			at := s.Now() + r.Float64()*10
			if r.Intn(8) == 0 {
				at = s.Now() // equal-time events exercise FIFO tie-break
			}
			id := nextID
			nextID++
			var h Handle
			if r.Intn(2) == 0 {
				h = s.At(at, func() { fired = append(fired, id) })
			} else {
				h = s.AfterArg(at-s.Now(), func(x any) { fired = append(fired, x.(int)) }, id)
			}
			seq := ref.schedule(at, id)
			pending = append(pending, live{h: h, seq: seq, id: id})
		}

		// retire moves a fired event's handle from pending to stale.
		retire := func(id int) {
			for i, p := range pending {
				if p.id == id {
					stale = append(stale, p.h)
					pending = append(pending[:i], pending[i+1:]...)
					return
				}
			}
		}

		step := func() {
			fired = fired[:0]
			want, ok := ref.pop()
			if gotOK := s.Step(); gotOK != ok {
				t.Fatalf("seed %d: Step = %v, reference = %v", seed, gotOK, ok)
			}
			if !ok {
				return
			}
			if len(fired) != 1 || fired[0] != want.id {
				t.Fatalf("seed %d: fired %v, reference expects id %d", seed, fired, want.id)
			}
			if s.Now() != want.at {
				t.Fatalf("seed %d: clock %v after firing, reference says %v", seed, s.Now(), want.at)
			}
			retire(want.id)
		}

		// runUntil checks a bounded run against the reference: exactly the
		// events due by end fire, in reference order, and the clock lands
		// on end. Events scheduled afterwards may be earlier than the one
		// the look-ahead stopped at.
		runUntil := func() {
			end := s.Now() + r.Float64()*2
			fired = fired[:0]
			s.RunUntil(end)
			for i := 0; len(ref.events) > 0 && ref.events[0].at <= end; i++ {
				want, _ := ref.pop()
				if i >= len(fired) || fired[i] != want.id {
					t.Fatalf("seed %d: RunUntil(%v) fired %v, reference expects id %d at position %d", seed, end, fired, want.id, i)
				}
				retire(want.id)
			}
			if s.Now() != end {
				t.Fatalf("seed %d: clock %v after RunUntil(%v)", seed, s.Now(), end)
			}
		}

		for op := 0; op < 3000; op++ {
			switch k := r.Intn(11); {
			case k == 10:
				runUntil()
			case k < 4:
				schedule()
			case k < 6 && len(pending) > 0:
				// Cancel a random live event in both implementations.
				i := r.Intn(len(pending))
				p := pending[i]
				if !p.h.Scheduled() {
					t.Fatalf("seed %d: live handle id %d reports not Scheduled", seed, p.id)
				}
				s.Cancel(p.h)
				ref.cancel(p.seq)
				stale = append(stale, p.h)
				pending = append(pending[:i], pending[i+1:]...)
			case k < 7 && len(stale) > 0:
				// A stale Cancel must be a no-op on live state.
				h := stale[r.Intn(len(stale))]
				if h.Scheduled() {
					t.Fatalf("seed %d: stale handle reports Scheduled", seed)
				}
				before := s.Len()
				s.Cancel(h)
				if s.Len() != before {
					t.Fatalf("seed %d: stale Cancel changed queue length %d -> %d", seed, before, s.Len())
				}
			default:
				step()
			}
			if s.Len() != len(ref.events) {
				t.Fatalf("seed %d: queue length %d, reference %d", seed, s.Len(), len(ref.events))
			}
		}
		// Drain: the remaining firing order must match exactly.
		for {
			want, ok := ref.pop()
			fired = fired[:0]
			if gotOK := s.Step(); gotOK != ok {
				t.Fatalf("seed %d: drain Step = %v, reference = %v", seed, gotOK, ok)
			}
			if !ok {
				break
			}
			if len(fired) != 1 || fired[0] != want.id {
				t.Fatalf("seed %d: drain fired %v, reference expects %d", seed, fired, want.id)
			}
		}
	}
}

// TestSchedulerReleaseReuse checks that a scheduler built from recycled
// backing arrays behaves identically to a fresh one.
func TestSchedulerReleaseReuse(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		run := func() []float64 {
			s := NewScheduler()
			var got []float64
			for _, at := range []float64{3, 1, 2, 1, 5} {
				at := at
				s.At(at, func() { got = append(got, at) })
			}
			h := s.At(4, func() { got = append(got, -1) })
			s.Cancel(h)
			s.Run()
			s.Release()
			return got
		}
		first := run()
		for i := 0; i < 3; i++ {
			if again := run(); !sort.Float64sAreSorted(again) || len(again) != len(first) {
				t.Fatalf("recycled scheduler run %d differs: %v vs %v", i, again, first)
			}
		}
	})
}

// TestReleasedSchedulerPinsNothing: a scheduler released with an At
// closure and a coarse timer still pending keeps neither alive, whether
// the pool keeps it for the next NewScheduler or, pinned, its owner
// keeps it for the next Reset. The test holds the scheduler across the
// collections, as the pool would between two: the pool frees what it
// holds after the second, which would hide a scheduler that kept its
// events.
func TestReleasedSchedulerPinsNothing(t *testing.T) {
	for _, pinned := range []bool{false, true} {
		t.Run(fmt.Sprintf("pinned=%v", pinned), func(t *testing.T) {
			type sentinel struct {
				_ *int // pointerful, so the allocator never packs it with other objects
				n int
			}
			s := NewScheduler()
			if pinned {
				s.Pin()
			}
			captured, armed := new(sentinel), new(sentinel)
			watched := map[string]weak.Pointer[sentinel]{
				"At closure":   weak.Make(captured),
				"coarse timer": weak.Make(armed),
			}
			s.At(1, func() { captured.n++ })
			tm := new(Timer)
			tm.InitArg(s, func(x any) { x.(*sentinel).n++ }, armed)
			tm.Coarse(s.Wheel(0.01))
			tm.Reset(1)
			s.Release()
			runtime.GC()
			runtime.GC()
			for what, w := range watched {
				if w.Value() != nil {
					t.Errorf("the released scheduler still holds what its pending %s references", what)
				}
			}
			runtime.KeepAlive(s)
		})
	}
}

// TestHandlesFromBeforeResetAreInert pins the sequence rule: Reset does
// not rewind the sequence counter, so a Handle issued before
// Scheduler.Reset must be completely inert afterwards — Scheduled false,
// Cancel a no-op — even when the new scenario's slot table is smaller
// than the old slot index (which the bounds check must catch) or reuses
// the same slot for an unrelated event (which a stale Cancel would
// otherwise kill, were sequence numbers issued again).
func TestHandlesFromBeforeResetAreInert(t *testing.T) {
	t.Run("calendar", testHandlesFromBeforeResetAreInert)
}

func testHandlesFromBeforeResetAreInert(t *testing.T) {
	s := NewScheduler()
	// Grow the slot table, keeping a pending handle at a high slot and
	// one at slot 0 with the first sequence number — the aliasing
	// candidates.
	var stale []Handle
	for i := 0; i < 32; i++ {
		stale = append(stale, s.At(float64(i+1), func() {}))
	}

	s.Reset()
	if stale[7].Scheduled() {
		t.Fatal("pre-Reset handle still reports Scheduled")
	}
	// One fresh event: it takes stale[0]'s slot 0, and would take its
	// sequence number too were Reset to rewind the counter; every higher
	// stale slot exceeds the new table.
	fired := false
	s.At(1, func() { fired = true })
	for _, h := range stale {
		s.Cancel(h) // must not panic and must not cancel the new event
	}
	s.Run()
	if !fired {
		t.Fatal("stale pre-Reset Cancel killed an unrelated post-Reset event")
	}
}

// TestSchedulerQueueEquivalence runs one random churn workload through
// the scheduler and the reference and requires bit-identical firing
// sequences — the property that lets the queue be re-tuned or replaced
// without perturbing any golden output.
func TestSchedulerQueueEquivalence(t *testing.T) {
	s, ref := NewScheduler(), &refSched{}
	r := rand.New(rand.NewSource(99))
	var fired []float64
	rec := func(any) { fired = append(fired, s.Now()) }
	var handles []Handle
	var seqs []uint64
	for op := 0; op < 20000; op++ {
		switch k := r.Intn(11); {
		case k == 10:
			d := r.Float64() * 0.5
			s.RunUntil(s.Now() + d)
			ref.runUntil(ref.now + d)
		case k < 5:
			d := r.Float64() * 3
			handles = append(handles, s.AfterArg(d, rec, nil))
			seqs = append(seqs, ref.after(d, 0))
		case k < 7 && len(handles) > 0:
			i := r.Intn(len(handles)) // often stale: a no-op on both
			s.Cancel(handles[i])
			ref.cancel(seqs[i])
		default:
			s.Step()
			ref.step()
		}
	}
	s.Run()
	ref.run()
	if len(fired) != len(ref.fired) {
		t.Fatalf("fired %d events, reference %d", len(fired), len(ref.fired))
	}
	for i, e := range ref.fired {
		if fired[i] != e.at {
			t.Fatalf("firing %d at %v, reference at %v", i, fired[i], e.at)
		}
	}
}

// TestCalendarResizeStress pushes the calendar through several grow and
// shrink cycles while checking global firing order.
func TestCalendarResizeStress(t *testing.T) {
	s := NewScheduler()
	r := rand.New(rand.NewSource(5))
	last := -1.0
	n := 0
	rec := func(any) {
		if s.Now() < last {
			t.Fatalf("time went backwards: %v after %v", s.Now(), last)
		}
		last = s.Now()
		n++
	}
	// Grow: far past the 2×256 resize trigger, with a wide time span.
	for i := 0; i < 5000; i++ {
		s.AtArg(r.Float64()*1000, rec, nil)
	}
	// Drain most of it (shrink path), then refill around the new clock.
	for i := 0; i < 4500; i++ {
		s.Step()
	}
	for i := 0; i < 3000; i++ {
		s.AtArg(s.Now()+r.Float64(), rec, nil)
	}
	s.Run()
	if n != 8000 {
		t.Fatalf("fired %d events, want 8000", n)
	}
}

// TestCalendarRunUntil pins RunUntil's peek path on the calendar.
func TestCalendarRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(2.5)
	if len(fired) != 2 || s.Now() != 2.5 {
		t.Fatalf("RunUntil(2.5): fired %v, clock %v", fired, s.Now())
	}
	s.RunUntil(10)
	if len(fired) != 4 || s.Now() != 10 {
		t.Fatalf("RunUntil(10): fired %v, clock %v", fired, s.Now())
	}
}

// TestCalendarInsertBehindLookahead pins the look-ahead bug: RunUntil
// stopping short of the next event leaves the calendar scan on that
// event's day, and an event then scheduled before it must still fire
// first. Before the fix the calendar fired [10 6] and ran the clock
// backwards.
func TestCalendarInsertBehindLookahead(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		s := NewScheduler()
		var fired []float64
		rec := func(any) {
			if n := len(fired); n > 0 && s.Now() < fired[n-1] {
				t.Fatalf("clock ran backwards: %v after %v", s.Now(), fired[n-1])
			}
			fired = append(fired, s.Now())
		}
		s.AtArg(10, rec, nil)
		s.RunUntil(5)
		s.AtArg(6, rec, nil)
		s.Run()
		if len(fired) != 2 || fired[0] != 6 || fired[1] != 10 {
			t.Fatalf("fired %v, want [6 10]", fired)
		}
	})
}

// calCheck verifies the calendar's structural invariants: every bucket
// list is (at, seq)-sorted, holds only events of that bucket, ends at
// the recorded tail, and the lists together hold exactly the live
// events, none of them earlier than the scan position.
func calCheck(t testing.TB, s *Scheduler) {
	t.Helper()
	c := &s.cal
	mask := int64(len(c.head) - 1)
	n := 0
	for idx, h := range c.head {
		last := int32(-1)
		for ; h >= 0; h = s.slots[h].next {
			ev := &s.slots[h]
			if ev.seq == 0 {
				t.Fatalf("bucket %d holds recycled slot %d", idx, h)
			}
			if day := c.calDay(ev.at); int(day&mask) != idx || day < c.curV {
				t.Fatalf("slot %d (at %v, day %d) filed in bucket %d with the scan at day %d", h, ev.at, day, idx, c.curV)
			}
			if last >= 0 {
				if p := &s.slots[last]; p.at > ev.at || (p.at == ev.at && p.seq > ev.seq) {
					t.Fatalf("bucket %d out of order: (%v, %d) before (%v, %d)", idx, p.at, p.seq, ev.at, ev.seq)
				}
			}
			last = h
			if n++; n > c.live {
				t.Fatalf("buckets hold more than the %d live events (cycle?)", c.live)
			}
		}
		if last >= 0 && c.tail[idx] != last {
			t.Fatalf("bucket %d: tail %d, last node %d", idx, c.tail[idx], last)
		}
	}
	if n != c.live {
		t.Fatalf("buckets hold %d events, live = %d", n, c.live)
	}
}

// TestCalendarUnlink cancels the head, a middle entry, the tail and the
// only entry of one day bucket, each followed by inserts before, inside
// and after what is left, and requires the reference's firing order.
func TestCalendarUnlink(t *testing.T) {
	// All inside day 10 of the resting calendar (width 1 ms).
	base := []float64{0.0101, 0.0103, 0.0105, 0.0107}
	after := []float64{0.01005, 0.0104, 0.0104, 0.0109}
	for _, tc := range []struct {
		name   string
		n      int   // base entries scheduled
		cancel []int // indices cancelled, in order
	}{
		{"head", 4, []int{0}},
		{"middle", 4, []int{2}},
		{"tail", 4, []int{3}},
		{"only", 1, []int{0}},
		{"all-from-tail", 4, []int{3, 2, 1, 0}},
		{"head-then-tail", 4, []int{0, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ref := NewScheduler(), &refSched{}
			var order []int
			rec := func(x any) { order = append(order, x.(int)) }
			var hs []Handle
			var seqs []uint64
			for i, at := range base[:tc.n] {
				hs = append(hs, s.AtArg(at, rec, i))
				seqs = append(seqs, ref.schedule(at, i))
			}
			for _, i := range tc.cancel {
				s.Cancel(hs[i])
				ref.cancel(seqs[i])
				if hs[i].Scheduled() {
					t.Fatalf("handle %d still Scheduled after Cancel", i)
				}
				calCheck(t, s)
			}
			for i, at := range after {
				s.AtArg(at, rec, 100+i)
				ref.schedule(at, 100+i)
				calCheck(t, s)
			}
			if s.Len() != len(ref.events) {
				t.Fatalf("Len = %d, want %d", s.Len(), len(ref.events))
			}
			s.Run()
			ref.run()
			var want []int
			for _, e := range ref.fired {
				want = append(want, e.id)
			}
			if fmt.Sprint(order) != fmt.Sprint(want) {
				t.Fatalf("fired %v, reference %v", order, want)
			}
		})
	}
}

// TestCalendarEqualTimesAreTailInserts schedules 10k events at one
// instant: they must fire FIFO, and every insert must take the O(1)
// tail path — no list node is ever stepped over, through all the
// rebuilds the growth triggers.
func TestCalendarEqualTimesAreTailInserts(t *testing.T) {
	s := NewScheduler()
	var got []int
	rec := func(x any) { got = append(got, x.(int)) }
	s.AtArg(0.5, rec, -1) // an earlier event, so the burst is not at the scan position
	for i := 0; i < 10000; i++ {
		s.AtArg(1.25, rec, i)
		if s.cal.steps != 0 {
			t.Fatalf("insert %d stepped over %d list nodes, want 0", i, s.cal.steps)
		}
	}
	calCheck(t, s)
	s.Run()
	if len(got) != 10001 || got[0] != -1 {
		t.Fatalf("fired %d events, first %v", len(got), got[:1])
	}
	for i, v := range got[1:] {
		if v != i {
			t.Fatalf("equal-time events not FIFO: position %d fired %d", i, v)
		}
	}
}

// TestCalendarStragglersDoNotStretchTheWidth holds a population whose
// bulk lies within 100 ms while 1 % of it sits a thousand seconds out.
// A width taken from the whole span would put the bulk in one bucket;
// the estimator must ignore the stragglers, settle in a bounded number
// of rebuilds, and keep the mean insert walk short afterwards.
func TestCalendarStragglersDoNotStretchTheWidth(t *testing.T) {
	s := NewScheduler()
	r := rand.New(rand.NewSource(11))
	nop := func(any) {}
	add := func() {
		d := r.Float64() * 0.1
		if r.Intn(100) == 0 {
			d += 1000
		}
		s.AfterArg(d, nop, nil)
	}
	const pop, churn = 20000, 200000
	for i := 0; i < pop; i++ {
		add()
	}
	rebuilds, steps, ops := 0, 0, 0
	for i := 0; i < churn; i++ {
		s.Step()
		w, nb, before := s.cal.width, len(s.cal.head), s.cal.steps
		add()
		if s.cal.width != w || len(s.cal.head) != nb {
			rebuilds++
		} else if i >= churn/2 {
			steps += s.cal.steps - before
			ops++
		}
	}
	calCheck(t, s)
	if rebuilds > 12 {
		t.Errorf("%d rebuilds over %d steady-state operations, want a handful", rebuilds, churn)
	}
	if mean := float64(steps) / float64(ops); mean > calMaxMeanSteps {
		t.Errorf("mean insert walk %.2f nodes after convergence (width %v), want ≤ %d", mean, s.cal.width, calMaxMeanSteps)
	}
}

// TestCalendarSparseAfterBurstRetunes leaves a calendar tuned to a dense
// burst holding only sparse events, with no insert to trigger a
// re-tune: every take would scan a whole year of empty buckets. The
// year scans are charged to the walk cost, so the drain itself must
// re-derive the width after a few of them.
func TestCalendarSparseAfterBurstRetunes(t *testing.T) {
	// The burst crosses the growth trigger, twice the resting buckets, so
	// the rebuild tunes the width to its 1 ns spacing and at least
	// doubles the buckets twice. The sparse events are then too many for
	// the drain to shrink the calendar (below an eighth of its buckets)
	// before halfway.
	burst := 2*calMinBuckets + calMinBuckets/4
	sparse := calMinBuckets + calMinBuckets/2
	s := NewScheduler()
	n := 0
	rec := func(any) { n++ }
	for i := 0; i < burst; i++ {
		s.AtArg(1+float64(i)*1e-9, rec, nil)
	}
	for i := 0; i < sparse; i++ {
		s.AtArg(2+float64(i)*1e-3, rec, nil)
	}
	if s.cal.width > 1e-6 {
		t.Fatalf("width %v after the burst: the test no longer sets up a too-fine calendar", s.cal.width)
	}
	s.RunUntil(2 + float64(sparse/2)*1e-3)
	if s.cal.width < 1e-4 {
		t.Errorf("width still %v halfway through the sparse events", s.cal.width)
	}
	calCheck(t, s)
	s.Run()
	if n != burst+sparse {
		t.Fatalf("fired %d events, want %d", n, burst+sparse)
	}
}

// TestCalendarResetAfterGrowth grows the calendar well past its resting
// size, shrinks it again, and then sends it through Reset and through
// the Release/NewScheduler pool: each time it must come back at the
// resting size and default width, empty, and fire in reference order.
func TestCalendarResetAfterGrowth(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	nop := func(any) {}
	// workload runs on the scheduler and the reference at once and
	// returns both firing-time sequences.
	workload := func(s *Scheduler) (fired []float64, want []refEvent) {
		wr := rand.New(rand.NewSource(4))
		ref := &refSched{}
		rec := func(any) { fired = append(fired, s.Now()) }
		for i := 0; i < 2000; i++ {
			d := wr.Float64()
			s.AfterArg(d, rec, nil)
			ref.after(d, 0)
			if i%3 == 0 {
				s.Step()
				ref.step()
			}
		}
		s.Run()
		ref.run()
		return fired, ref.fired
	}
	s := NewScheduler()
	for round := 0; round < 4; round++ {
		for i := 0; i < 20000; i++ {
			s.AfterArg(r.Float64()*50, nop, nil)
		}
		if len(s.cal.head) <= calMinBuckets {
			t.Fatalf("round %d: calendar did not grow: %d buckets", round, len(s.cal.head))
		}
		grown := len(s.cal.head)
		for s.Len() > 100 {
			s.Step()
		}
		if len(s.cal.head) >= grown {
			t.Fatalf("round %d: calendar did not shrink: %d buckets", round, len(s.cal.head))
		}
		calCheck(t, s)
		if round%2 == 0 {
			s.Reset()
		} else {
			s.Release()
			s = NewScheduler()
		}
		if len(s.cal.head) != calMinBuckets || s.cal.width != calDefaultWidth || s.Len() != 0 || s.Now() != 0 {
			t.Fatalf("round %d: recycled calendar has %d buckets, width %v, %d events, clock %v",
				round, len(s.cal.head), s.cal.width, s.Len(), s.Now())
		}
		calCheck(t, s)
		got, want := workload(s)
		if len(got) != len(want) {
			t.Fatalf("round %d: fired %d events, reference %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i].at {
				t.Fatalf("round %d: firing %d at %v, reference at %v", round, i, got[i], want[i].at)
			}
		}
		s.Reset()
	}
}

// TestEventIsOneCacheLine pins the slot layout the calendar's locality
// rests on: 44 bytes of fields padded to the 64 of one line, so no slot
// of the table straddles two. A Handle is the scheduler pointer, the
// sequence number and the slot index, and nothing more.
func TestEventIsOneCacheLine(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz != 64 {
		t.Fatalf("event is %d bytes, want 64", sz)
	}
	if sz := unsafe.Sizeof(Handle{}); sz != 24 {
		t.Fatalf("Handle is %d bytes, want 24", sz)
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	r := rand.New(rand.NewSource(1))
	// Keep a standing population of events, pop one, push one.
	for i := 0; i < 1024; i++ {
		s.At(r.Float64(), func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(r.Float64(), func() {})
		s.Step()
	}
}

// BenchmarkSchedulerEventsPerSecond measures raw queue throughput on the
// allocation-free AtArg path with a standing population of 4096 events —
// the regime the simulator hot path operates in. The headline metric is
// scheduler events per wall-clock second.
func BenchmarkSchedulerEventsPerSecond(b *testing.B) {
	s := NewScheduler()
	r := rand.New(rand.NewSource(1))
	delays := make([]float64, 8192)
	for i := range delays {
		delays[i] = r.Float64()
	}
	fn := func(any) {}
	for i := 0; i < 4096; i++ {
		s.AfterArg(delays[i%len(delays)], fn, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterArg(delays[i%len(delays)], fn, nil)
		s.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkSchedulerQueues measures the queue across standing event
// populations (the numbers behind the verdict in calendar.go): hold N
// events pending, then measure pop-one/push-one churn, the simulator's
// steady-state access pattern.
func BenchmarkSchedulerQueues(b *testing.B) {
	for _, pop := range []int{1_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("pop=%d", pop), func(b *testing.B) {
			s := NewScheduler()
			s.Pin() // keep the 1M-population backing out of the shared pool
			r := rand.New(rand.NewSource(1))
			delays := make([]float64, 8192)
			for i := range delays {
				delays[i] = r.Float64()
			}
			fn := func(any) {}
			for i := 0; i < pop; i++ {
				s.AfterArg(delays[i%len(delays)], fn, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.AfterArg(delays[i%len(delays)], fn, nil)
				s.Step()
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// TestFreshSchedulerHoldsRestingPopulationWithoutAllocating pins
// NewScheduler's sizing: a scheduler the pool did not recycle holds and
// fires calMinBuckets pending events, the population the calendar rests
// at, with no allocation after NewScheduler. The cheapest of three tries
// is judged: MemStats counts the whole process, and the runtime
// allocates on its own now and then.
func TestFreshSchedulerHoldsRestingPopulationWithoutAllocating(t *testing.T) {
	fired := 0
	fn := func() { fired++ }
	best := ^uint64(0)
	for try := 0; try < 3; try++ {
		// sync.Pool moves what it holds to its victim cache at one
		// collection and drops it at the next: after two, NewScheduler
		// has nothing to recycle.
		runtime.GC()
		runtime.GC()
		s := NewScheduler()
		fired = 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range calMinBuckets {
			// Out of order, with ties, so inserts walk their buckets.
			s.At(float64((i*37)%(calMinBuckets/2))*1e-3, fn)
		}
		for s.Step() {
		}
		runtime.ReadMemStats(&after)
		if fired != calMinBuckets {
			t.Fatalf("fired %d of %d events", fired, calMinBuckets)
		}
		best = min(best, after.Mallocs-before.Mallocs)
	}
	t.Logf("fresh scheduler, %d pending events: %d allocations", calMinBuckets, best)
	if best != 0 {
		t.Errorf("a fresh scheduler allocated %d times holding %d events: its tables were not sized at NewScheduler",
			best, calMinBuckets)
	}
}
