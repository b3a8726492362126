package sim

import (
	"fmt"
	"math"
)

// This file implements coarse timer batching: a timing wheel that
// aggregates many Timers into one scheduler event per occupied tick.
// A Timer opted into a wheel (Timer.Coarse) rounds its deadline UP to
// the next multiple of the wheel tick — timers may fire late by up to
// one tick, never early — and all timers sharing a tick fire from a
// single scheduler event, in arming order. At a million flows this
// turns a million resident feedback-timer queue entries into at most
// one pending scheduler event per occupied tick bucket.
//
// Cancellation is lazy (unlike the calendar queue's): Timer.Stop bumps
// the timer's wheel generation and the stale bucket entry is discarded
// when its tick is processed. Determinism: tick processing order is
// bucket insertion order, and every deadline-to-tick rounding uses the
// same integer expression everywhere.

// wheelBuckets is the fixed bucket count (power of two). Ticks hash to
// buckets mod wheelBuckets; entries more than wheelBuckets ticks out
// simply wait in their bucket for a later round.
const wheelBuckets = 1024

// wheelEntry is one armed coarse timer occurrence.
type wheelEntry struct {
	t    *Timer
	gen  uint32 // Timer.wgen at arming; mismatch ⇒ stopped or re-armed
	tick int64  // absolute tick index the timer fires at
}

// Wheel batches coarse timers for one tick granularity on one
// scheduler. Obtain via Scheduler.Wheel; wheels persist across Reset
// (scrubbed) so pooled scenarios reuse their bucket storage.
type Wheel struct {
	sched   *Scheduler
	tick    float64
	buckets [][]wheelEntry // bucket backing reused across scenarios; reset scrubs entries
	spare   []wheelEntry   // bucket swapped in during processing so same-tick re-arms never alias
	live    int
	armed   bool
	curV    int64 // tick the armed scheduler event will process
	ev      Handle
}

// Wheel returns the scheduler's timer wheel for the given tick
// granularity (seconds), creating it on first use. Wheels are keyed by
// exact tick value and survive Reset, like arenas.
func (s *Scheduler) Wheel(tick float64) *Wheel {
	if !(tick > 0) || math.IsInf(tick, 0) {
		panic(fmt.Sprintf("sim: wheel tick must be positive and finite, got %v", tick))
	}
	for _, w := range s.wheels {
		if w.tick == tick {
			return w
		}
	}
	w := &Wheel{
		sched:   s,
		tick:    tick,
		buckets: make([][]wheelEntry, wheelBuckets),
	}
	s.wheels = append(s.wheels, w)
	return w
}

// reset scrubs all bucket entries (they reference Timers inside agent
// graphs) while keeping grown backing storage.
func (w *Wheel) reset() {
	for i := range w.buckets {
		clear(w.buckets[i])
		w.buckets[i] = w.buckets[i][:0]
	}
	clear(w.spare)
	w.spare = w.spare[:0]
	w.live = 0
	w.armed = false
}

// arm files a timer for the given absolute deadline, rounding up to the
// next tick. Called from Timer.Reset after the timer's previous
// occurrence (if any) was invalidated.
func (w *Wheel) arm(t *Timer, at float64) {
	k := int64(math.Ceil(at / w.tick))
	now := w.sched.now
	if float64(k)*w.tick < now {
		// Guard against rounding pushing the fire time into the past.
		k = int64(math.Ceil(now / w.tick))
		if float64(k)*w.tick < now {
			k++
		}
	}
	t.wgen++
	t.wtick = k
	idx := int(k & (wheelBuckets - 1))
	w.buckets[idx] = append(w.buckets[idx], wheelEntry{t: t, gen: t.wgen, tick: k})
	w.live++
	w.armAt(k)
}

// cancel lazily invalidates a timer's pending occurrence.
func (w *Wheel) cancel(t *Timer) {
	if t.wtick < 0 {
		return
	}
	t.wgen++
	t.wtick = -1
	w.live--
}

// armAt ensures the wheel's scheduler event fires no later than tick k.
func (w *Wheel) armAt(k int64) {
	if w.armed && w.curV <= k {
		return
	}
	if w.armed {
		w.sched.Cancel(w.ev)
	}
	w.curV = k
	w.armed = true
	at := float64(k) * w.tick
	if at < w.sched.now {
		at = w.sched.now
	}
	w.ev = w.sched.AtArg(at, wheelFireFn, w)
}

// wheelFireFn is the shared scheduler callback processing one tick.
func wheelFireFn(x any) { x.(*Wheel).process() }

// process fires every pending timer of tick curV in arming order, then
// re-arms the wheel for the next occupied tick. Timer callbacks may
// re-arm into any bucket — including the one being processed; the spare
// swap keeps the in-flight slice private, and a callback arming an
// already-elapsed tick simply schedules a new wheel event at now.
func (w *Wheel) process() {
	w.armed = false
	kv := w.curV
	idx := int(kv & (wheelBuckets - 1))
	b := w.buckets[idx]
	w.buckets[idx] = w.spare[:0]
	keep := b[:0]
	for i := range b {
		e := b[i]
		if e.t == nil || e.gen != e.t.wgen || e.t.wtick != e.tick {
			continue // lazily cancelled or superseded
		}
		if e.tick == kv {
			e.t.wtick = -1
			w.live--
			e.t.fire()
		} else {
			keep = append(keep, e)
		}
	}
	// Merge: retained future-round entries first, then anything armed
	// into this bucket by the callbacks just fired.
	armedNew := w.buckets[idx]
	keep = append(keep, armedNew...)
	for i := len(keep); i < len(b); i++ {
		b[i] = wheelEntry{}
	}
	clear(armedNew)
	w.spare = armedNew[:0]
	w.buckets[idx] = keep
	if w.live > 0 {
		w.armNext(kv)
	}
}

// armNext arms the wheel event for the next occupied bucket after tick
// k. Buckets holding only far-round entries cause a bounded number of
// no-op wakeups (the process call finds nothing due and re-arms), never
// a missed deadline.
func (w *Wheel) armNext(k int64) {
	for off := int64(1); off <= wheelBuckets; off++ {
		idx := int((k + off) & (wheelBuckets - 1))
		if len(w.buckets[idx]) > 0 {
			w.armAt(k + off)
			return
		}
	}
}
