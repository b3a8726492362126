package sim

import (
	"cmp"
	"math"
	"slices"
)

// This file implements the Scheduler's pending-event set: a Brown-style
// calendar queue (R. Brown, "Calendar Queues: A Fast O(1) Priority Queue
// Implementation for the Simulation Event Set Problem", CACM 1988). The
// queue is an array of "day" buckets, each holding the events of one
// width-sized slice of simulated time in (time, insertion sequence)
// order; popping walks the calendar "day by day", firing the events
// whose virtual day has arrived. When a full rotation finds nothing (a
// sparse far-future queue), a direct scan of all bucket heads locates
// the global minimum and the calendar jumps there.
//
// It is the only queue. Verdict (2026-10, the standing-population churn
// benchmark in scheduler_test.go, 2-core x86-64 container, medians of
// three) against the flat 4-ary heap it replaced: 20M vs 5.4M events/sec
// at 1k pending, 6.0M vs 2.5M at 100k, 2.9M vs 1.3M at 1M (its
// lazy-cancel, per-bucket-slice predecessor managed 10M, 2.8M and 2.0M
// on the same host and lost to the heap at 1M on the 2026-08 one), and
// the benchmark's 8-flow dumbbell rose from 1.14M to 1.64M pkts/sec over
// that predecessor. The tests hold it to the order of a sorted slice.
//
// The queue is intrusive: a bucket is a singly linked list threaded
// through the scheduler's slot table (head/tail slot index per bucket,
// next index and sort key in the event itself), so the calendar owns no
// copy of any event and no per-bucket storage. An insert appends at the
// tail when the new event is not earlier than the bucket's last — the
// common case, and always the case among equal times, which is what
// makes equal-time events FIFO — and otherwise walks from the head.
// Cancel unlinks the event on the spot, so the scan never meets a dead
// entry, and the sequence number the queue sorts by is also the
// identity a Handle checks.
//
// A list walk is a chain of dependent loads where a sorted array would
// be searched in place, so the walk length is what the calendar tunes
// itself by. Two triggers rebuild it (calResize, a sort-and-refill of
// the pending events). The population crossing 2× or 1/8× the bucket
// count re-sizes the bucket array. And the walk cost: every insert and
// unlink counts the list nodes it stepped over, a take that finds
// nothing due within a year counts the heads it scanned, and when one
// period's count exceeds calMaxMeanSteps per operation the day width is
// stale — too coarse for the current density in the first case, too
// fine in the second — and is re-derived. The new width is one event
// per day at the density of the soonest-due events: the densest of the
// earlier half, quarter and eighth of the pending events. Those are the
// buckets about to be scanned and, in a packet simulation, inserted
// into; the whole span would let a handful of far-future timers (1 % of
// a population parked seconds ahead) stretch the width until the bulk
// shares one bucket, and the half alone still does when such a cluster
// outnumbers the near one, as it does while a large population starts.
// A period is calTunePeriod operations or the population, whichever is
// larger, so rebuilds stay O(log n) per operation; a re-tune that
// leaves the width within 2× of the old one doubles the next period, so
// a population the width cannot help (bursts far denser than their
// surroundings, a cancel-heavy phase of equal-time events) stops paying
// for rebuilds, and one whose density drifts re-tunes about once per
// doubling.
//
// All of this is deterministic: the counters advance only on scheduler
// calls, the estimator reads only pending (time, sequence) keys, and
// neither consults the host. And none of it can change a simulation:
// an event's virtual day is int64(at*inv), inv = 1/width, computed by
// calDay everywhere, so insert, scan and unlink always agree on the
// bucket; the product is monotone in at, so days order like times; and
// equal times share a bucket, so the global firing order is (time,
// sequence) whatever the width.

const (
	// calMinBuckets is the resting bucket-array size (power of two).
	calMinBuckets = 256
	// calMaxBuckets caps adaptive growth; 2^21 buckets comfortably
	// spreads a ~1M-event population at one to two events per bucket.
	calMaxBuckets = 1 << 21
	// calDefaultWidth is the initial day width in simulated seconds,
	// replaced by the measured event spacing on the first rebuild.
	calDefaultWidth = 1e-3
	// calTunePeriod is the shortest walk-cost period, in inserts plus
	// unlinks: a few populations' worth of the 8-flow dumbbell's ~60
	// pending events, a few milliseconds of host time.
	calTunePeriod = 4096
	// calMaxMeanSteps is the mean list steps per insert/unlink above
	// which the day width counts as stale. One event per day leaves the
	// measured workloads at 0.3–0.7 (dumbbell 0.4, 10k flows 0.5–0.7),
	// the resting 1 ms width puts the dumbbell at 1.2.
	calMaxMeanSteps = 1
)

// calQueue is the calendar state embedded in Scheduler. All backing
// storage is value-only (no pointers), so Reset/Release only truncate.
type calQueue struct {
	head, tail []int32 // per-bucket list ends (slot indices); head -1 = empty, tail then stale
	width, inv float64 // seconds of simulated time per day bucket, and its reciprocal
	live       int     // pending entries
	curV       int64   // virtual day the scan is positioned at
	steps, ops int     // list nodes stepped over / inserts+unlinks, this period
	period     int     // ops per walk-cost decision; doubles while re-tuning does not move the width
	scratch    []int32 // rebuild collection buffer, reused
}

// calDay is the one expression mapping a firing time to its virtual day.
func (c *calQueue) calDay(at float64) int64 { return int64(at * c.inv) }

// stale reports whether the period's walks have overdrawn its budget of
// calMaxMeanSteps steps per operation.
func (c *calQueue) stale() bool { return c.steps > calMaxMeanSteps*c.period }

// calReset rewinds the calendar for a fresh scenario — a rebuild for
// an empty population, at the default width — keeping grown storage
// for reuse. The clock is already back at zero.
func (s *Scheduler) calReset() {
	c := &s.cal
	c.head = c.head[:0] // the old scenario's lists are dropped, not collected
	c.width, c.inv = calDefaultWidth, 1/calDefaultWidth
	c.live, c.period = 0, calTunePeriod
	s.calResize()
}

// calInsert links a claimed slot into its day bucket in (at, seq)
// order. New events carry the largest sequence number, so among equal
// times the insertion point is after every equal-time entry — FIFO.
func (s *Scheduler) calInsert(slot int32) {
	c := &s.cal
	ev := &s.slots[slot]
	at := ev.at
	day := c.calDay(at)
	if day < c.curV {
		// A bounded take (RunUntil) or a rebuild left the scan on the
		// day of a later event: step back or this one fires after it.
		c.curV = day
	}
	idx := int(day & int64(len(c.head)-1))
	if c.head[idx] < 0 {
		ev.next = -1
		c.head[idx], c.tail[idx] = slot, slot
	} else if t := &s.slots[c.tail[idx]]; at >= t.at {
		ev.next = -1
		t.next = slot
		c.tail[idx] = slot
	} else {
		// Strictly earlier than the tail: the walk ends before it.
		link, steps := &c.head[idx], 0
		for s.slots[*link].at <= at {
			link = &s.slots[*link].next
			steps++
		}
		ev.next = *link
		*link = slot
		c.steps += steps
	}
	c.live++
	c.ops++
	if c.live > 2*len(c.head) && len(c.head) < calMaxBuckets {
		s.calResize()
	} else if c.ops >= c.period {
		s.calTune()
	}
}

// calUnlink removes a pending slot from its day bucket (Cancel). A
// pending slot is always in its bucket; were it not, the walk would run
// off the list's end and panic indexing slot -1.
func (s *Scheduler) calUnlink(slot int32) {
	c := &s.cal
	ev := &s.slots[slot]
	idx := int(c.calDay(ev.at) & int64(len(c.head)-1))
	link, prev, steps := &c.head[idx], int32(-1), 0
	for *link != slot {
		prev = *link
		link = &s.slots[prev].next
		steps++
	}
	*link = ev.next
	if c.tail[idx] == slot {
		c.tail[idx] = prev
	}
	c.steps += steps
	c.live--
	c.ops++
}

// calTake unlinks and returns the earliest pending slot if it fires no
// later than bound, or -1. It advances day by day from curV; if a full
// rotation finds nothing due — the queue is sparse relative to its
// span — it jumps the calendar to the minimum over all bucket heads.
// Serving Step (bound +Inf) and RunUntil alike, it finds each event
// once; a take refused by the bound leaves the scan on that event's day.
func (s *Scheduler) calTake(bound float64) int32 {
	c := &s.cal
	if c.live == 0 {
		return -1
	}
	mask := int64(len(c.head) - 1)
	for v, end := c.curV, c.curV+int64(len(c.head)); v < end; v++ {
		idx := int(v & mask)
		if h := c.head[idx]; h >= 0 {
			if ev := &s.slots[h]; c.calDay(ev.at) <= v {
				c.curV = v
				if ev.at > bound {
					return -1
				}
				c.head[idx] = ev.next
				c.live--
				if c.live < len(c.head)/8 && len(c.head) > calMinBuckets {
					s.calResize()
				}
				return h
			}
		}
	}
	// Nothing due within a year. The scan over all heads is charged to
	// the walk-cost period like list steps — a width too fine for the
	// population pays it on every take — and when it overdraws the
	// period the rebuild happens now: a draining queue has no insert to
	// wait for. Either way the scan resumes on the earliest event's day
	// (equal times share a bucket, so the minimum head is unique).
	if c.steps += len(c.head); c.stale() {
		s.calTune()
	} else {
		best := int32(-1)
		for _, h := range c.head {
			if h >= 0 && (best < 0 || s.slots[h].at < s.slots[best].at) {
				best = h
			}
		}
		c.curV = c.calDay(s.slots[best].at)
	}
	return s.calTake(bound)
}

// calTune closes one walk-cost period. If its inserts, unlinks and
// year scans stepped over more than calMaxMeanSteps nodes per operation
// the day width is stale for the population's current density and the
// calendar is rebuilt. A rebuild that leaves the width within 2× of the
// old one was not what the walks needed, so the next period is twice as
// long; otherwise it is calTunePeriod or the population, whichever is
// larger, which keeps the O(n log n) rebuild at O(log n) per operation.
func (s *Scheduler) calTune() {
	c := &s.cal
	old, stale := c.width, c.stale()
	if stale {
		s.calResize()
	}
	c.steps, c.ops = 0, 0
	if stale && c.width > old/2 && c.width < old*2 {
		c.period *= 2
	} else {
		c.period = max(calTunePeriod, c.live)
	}
}

// calResize rebuilds the calendar for the pending population: the
// bucket count becomes the next power of two covering it, the day
// width becomes one event per day at the density of its soonest-due
// events (see the file comment), and every event is re-filed.
// Amortized: triggered on 2× population swings and on stale-width
// periods only, and the collection buffer is reused across rebuilds.
func (s *Scheduler) calResize() {
	c := &s.cal
	sc := c.scratch[:0]
	for _, h := range c.head {
		for ; h >= 0; h = s.slots[h].next {
			sc = append(sc, h)
		}
	}
	c.scratch = sc
	slices.SortFunc(sc, func(a, b int32) int {
		ea, eb := &s.slots[a], &s.slots[b]
		return cmp.Or(cmp.Compare(ea.at, eb.at), cmp.Compare(ea.seq, eb.seq))
	})
	nb := calMinBuckets
	for nb < len(sc) && nb < calMaxBuckets {
		nb <<= 1
	}
	if nb > cap(c.head) {
		c.head = make([]int32, nb)
		c.tail = make([]int32, nb)
	}
	c.head, c.tail = c.head[:nb], c.tail[:nb]
	for i := range c.head {
		c.head[i] = -1
	}
	c.steps, c.ops = 0, 0
	c.period = max(c.period, len(sc)) // a rebuild is O(n log n): at most one per n operations
	first, w := s.now, math.Inf(1)
	if n := len(sc); n > 0 {
		first = s.slots[sc[0]].at
		for k := n / 2; k > n/16; k /= 2 {
			if d := (s.slots[sc[k]].at - first) / float64(k); d > 0 && d < w {
				w = d
			}
		}
	}
	if w > 1e-12 && !math.IsInf(w, 0) {
		c.width, c.inv = w, 1/w
	}
	c.curV = c.calDay(first)
	// Refill in ascending (at, seq) order: every event is its bucket's
	// new tail, so per-bucket order holds by construction.
	mask := int64(len(c.head) - 1)
	for _, slot := range sc {
		ev := &s.slots[slot]
		ev.next = -1
		idx := int(c.calDay(ev.at) & mask)
		if c.head[idx] < 0 {
			c.head[idx] = slot
		} else {
			s.slots[c.tail[idx]].next = slot
		}
		c.tail[idx] = slot
	}
}
