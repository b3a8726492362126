// Package sim provides a deterministic discrete-event simulation engine:
// an event scheduler on a self-tuning calendar queue, a simulation
// clock, cancellable timers with optional coarse batching on a timer
// wheel, and seeded random-variate helpers.
//
// The engine is single-threaded by design. Determinism comes from three
// properties: events fire in (time, insertion-sequence) order whatever
// the calendar's current tuning, all randomness is drawn from explicitly
// seeded sources, and no wall-clock time is consulted anywhere.
package sim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// event is one scheduled callback. Events live inline in the scheduler's
// slot table — callers never hold them; At and After hand out
// generation-checked Handles carrying the slot index instead.
//
// The struct is exactly 64 bytes — one cache line per event — and it is
// the calendar queue's node itself: (at, seq) is the sort key and next
// threads the event's day bucket through the table. Its fields fill 53
// of them; the eleven spare bytes are kept so a slot never straddles two
// lines (at 56 bytes sim.sched_ns_per_event.1m read 230 against 202 ns,
// worse in 9 of 10 alternating pairs).
type event struct {
	gen    uint64    // bumped on every recycle; stale Handles don't match
	at     float64   // firing time
	seq    uint64    // insertion sequence: FIFO among equal times
	afn    func(any) // the one callback form; At and After pass their func() as arg
	arg    any
	next   int32 // next slot in the day bucket, -1 at the tail
	queued bool  // pending in the calendar; false once fired, cancelled or recycled
	_      [11]byte
}

// Handle refers to one scheduled firing of an event. The zero Handle is
// inert: Scheduled reports false and Cancel is a no-op. A Handle held
// across its event's firing or cancellation goes stale — the generation
// counter guarantees a stale Handle can never cancel the unrelated event
// that later reuses the same recycled slot, and the epoch stamp
// guarantees a Handle issued before a Scheduler.Reset can never touch
// the rebuilt slot table of the next scenario.
type Handle struct {
	s     *Scheduler
	gen   uint64
	epoch uint64
	slot  int32
}

// Scheduled reports whether the event this Handle was issued for is still
// pending in the queue. The epoch check comes first: after a Reset the
// slot table is rebuilt from empty, so a pre-Reset slot index may exceed
// it (or alias an unrelated new event at the same generation).
func (h Handle) Scheduled() bool {
	if h.s == nil || h.epoch != h.s.epoch {
		return false
	}
	e := &h.s.slots[h.slot]
	return e.gen == h.gen && e.queued
}

// Scheduler owns the simulation clock and the pending event queue: a
// calendar queue (calendar.go) ordered by (time, sequence) and threaded
// through a slot table that gives every pending event a stable index for
// generation-checked Handles. No interface boxing, no per-event
// allocation: steady-state scheduling touches only flat slices.
// The zero value is not ready for use; call NewScheduler.
type Scheduler struct {
	now    float64
	seq    uint64
	epoch  uint64   // bumped by Reset; stale-epoch Handles are inert
	cal    calQueue //tfrc:keep value-only calendar bucket ends, truncated on Reset/reuse
	slots  []event
	free   []int32 //tfrc:keep recycled slot indices, value-only backing
	pinned bool    // owned by a worker context: Release is a no-op

	rands Slab[Rand] //tfrc:keep generators handed out by NewRand, re-seeded and reissued on reuse

	wheels []*Wheel //tfrc:keep coarse timer wheels keyed by tick, scrubbed on Reset/Release

	arenas []Arena //tfrc:keep per-package agent arenas, indexed by ArenaID; they ARE the recycled stock
}

// Arena is a scheduler-attached memory arena: a package-private pool of
// that package's per-scenario objects (agents, monitors, networks). The
// scheduler calls ResetArena at every Reset, which marks every object
// the arena ever handed out as free again — the whole working set of the
// previous scenario becomes the construction stock of the next one.
type Arena interface{ ResetArena() }

// ArenaID names one package's arena slot on every scheduler. IDs are
// allocated once at package init via NewArenaID.
type ArenaID int32

var arenaIDs atomic.Int32

// NewArenaID reserves a process-wide arena slot index.
func NewArenaID() ArenaID { return ArenaID(arenaIDs.Add(1) - 1) }

// Arena returns the scheduler's arena for the given ID, calling mk to
// build it on first use. Arenas survive Reset and Release: they are the
// mechanism by which a reused scheduler carries an entire recycled
// object graph from one sweep cell to the next.
func (s *Scheduler) Arena(id ArenaID, mk func() Arena) Arena {
	for int(id) >= len(s.arenas) {
		s.arenas = append(s.arenas, nil)
	}
	a := s.arenas[id]
	if a == nil {
		a = mk()
		s.arenas[id] = a
	}
	return a
}

// schedMem recycles scheduler backing arrays across instances: sweep
// cells build thousands of short-lived schedulers, and reusing the grown
// slices keeps per-cell setup out of the allocator.
var schedMem = sync.Pool{New: func() any { return new(Scheduler) }}

// NewScheduler returns a scheduler with the clock at zero. Its backing
// arrays may be recycled from a previously Released scheduler.
func NewScheduler() *Scheduler {
	s := schedMem.Get().(*Scheduler)
	s.Reset()
	return s
}

// Reset rewinds the scheduler for a fresh scenario: the clock returns to
// zero, every pending event is dropped (and its callback reference
// scrubbed), recycled random generators and arena objects all become
// available again. Any Handle, Rand, or arena object obtained before the
// Reset must be re-acquired. Worker contexts that pin a scheduler call
// Reset once per sweep cell instead of round-tripping it through the
// shared pool.
func (s *Scheduler) Reset() {
	s.clear()
	s.now = 0
	s.seq = 0
	s.epoch++
	s.calReset()
	s.slots = s.slots[:0]
	s.free = s.free[:0]
	s.rands.Reset()
	for _, a := range s.arenas {
		if a != nil {
			a.ResetArena()
		}
	}
}

// Pin marks the scheduler as owned by a long-lived worker context:
// Release becomes a no-op, so the scheduler (and the arenas riding on
// it) stays with its owner instead of returning to the shared pool. The
// owner recycles it with Reset.
func (s *Scheduler) Pin() { s.pinned = true }

// Release returns the scheduler's backing arrays to a shared pool for
// reuse by a later NewScheduler. The scheduler (and any Handle issued by
// it) must not be used afterwards. Calling Release is optional — an
// unreleased scheduler is simply collected by the GC — and it is a no-op
// on a pinned scheduler, whose owner keeps recycling it via Reset.
func (s *Scheduler) Release() {
	if s.pinned {
		return
	}
	s.clear()
	schedMem.Put(s)
}

// clear drops what the finished scenario's pending events and wheel
// buckets (which hold *Timer references into agent graphs) point at.
func (s *Scheduler) clear() {
	for i := range s.slots {
		s.slots[i].afn = nil
		s.slots[i].arg = nil
	}
	for _, w := range s.wheels {
		w.reset()
	}
}

// Now returns the current simulated time in seconds.
func (s *Scheduler) Now() float64 { return s.now }

// alloc validates t, claims a slot, and files it in the calendar.
//
//tfrc:hotpath
func (s *Scheduler) alloc(t float64) int32 {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %.9f before now %.9f", t, s.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %v", t))
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.slots))
		s.slots = append(s.slots, event{}) //tfrclint:allow hotpathalloc amortized slab growth
	}
	ev := &s.slots[slot]
	ev.at = t
	ev.seq = s.seq
	s.seq++
	ev.queued = true
	s.calInsert(slot)
	return slot
}

// recycle clears a fired or cancelled slot and returns it to the free
// list. The generation bump invalidates every Handle issued for it.
//
//tfrc:hotpath
func (s *Scheduler) recycle(slot int32) {
	e := &s.slots[slot]
	e.afn = nil
	e.arg = nil
	e.gen++
	e.queued = false
	s.free = append(s.free, slot) //tfrclint:allow hotpathalloc amortized free-list growth
}

// callFn is the shared callback behind At, After and Timer.Init: the
// func() rides in the arg slot, which a func value fits without
// allocating.
func callFn(fn any) { fn.(func())() }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a protocol bug rather than a recoverable
// condition.
func (s *Scheduler) At(t float64, fn func()) Handle {
	return s.AtArg(t, callFn, fn)
}

// After schedules fn to run d seconds from now.
func (s *Scheduler) After(d float64, fn func()) Handle {
	return s.At(s.now+d, fn)
}

// AtArg schedules fn(arg) at absolute time t. Unlike At it needs no
// closure: callers on hot paths build fn once and pass per-event state
// through arg, so steady-state scheduling is allocation-free.
//
//tfrc:hotpath
func (s *Scheduler) AtArg(t float64, fn func(any), arg any) Handle {
	slot := s.alloc(t)
	e := &s.slots[slot]
	e.afn = fn
	e.arg = arg
	return Handle{s: s, slot: slot, gen: e.gen, epoch: s.epoch}
}

// AfterArg schedules fn(arg) to run d seconds from now.
//
//tfrc:hotpath
func (s *Scheduler) AfterArg(d float64, fn func(any), arg any) Handle {
	return s.AtArg(s.now+d, fn, arg)
}

// Cancel removes a pending event. Cancelling a fired, already-cancelled,
// or stale handle is a no-op, which lets protocol code keep a single
// timer handle without tracking liveness.
//
//tfrc:hotpath
func (s *Scheduler) Cancel(h Handle) {
	if !h.Scheduled() {
		return
	}
	s.calUnlink(h.slot)
	s.recycle(h.slot)
}

// Step runs the earliest pending event and advances the clock to it.
// It returns false when the queue is empty.
//
//tfrc:hotpath
func (s *Scheduler) Step() bool { return s.step(math.Inf(1)) }

// step runs the earliest pending event if it fires no later than bound:
// pop, advance the clock, fire. It returns false, leaving the event
// queued, when there is none or it is later.
//
//tfrc:hotpath
func (s *Scheduler) step(bound float64) bool {
	slot := s.calTake(bound)
	if slot < 0 {
		return false
	}
	e := &s.slots[slot]
	s.now = e.at
	afn, arg := e.afn, e.arg
	s.recycle(slot)
	afn(arg)
	return true
}

// RunUntil executes events with time ≤ end, leaves later events queued,
// and advances the clock to end.
func (s *Scheduler) RunUntil(end float64) {
	for s.step(end) {
	}
	if s.now < end {
		s.now = end
	}
}
