package sim

import (
	"math"
	"testing"
)

// fuzzDelay spreads one operand byte over the regimes the calendar
// treats differently: equal times, sub-width spacing, the resting width,
// whole seconds, and far-future stragglers beyond any year.
func fuzzDelay(b byte) float64 {
	m := float64(b >> 3)
	switch b & 7 {
	case 0:
		return 0
	case 1:
		return m * 1e-9
	case 2:
		return m * 1e-5
	case 3, 4:
		return m * 1e-3
	case 5:
		return m * 0.25
	case 6:
		return m * 10
	default:
		return 1000 + m*1000
	}
}

// schedTrio drives both queue backends and the sorted-slice reference
// through one operation sequence.
type schedTrio struct {
	t      testing.TB
	s      [2]*Scheduler // heap4, calendar
	fired  [2][]int
	lastAt [2]float64
	live   [2][]Handle // pending handles, index-aligned across backends
	stale  [2][]Handle
	seqs   []uint64 // reference sequence numbers, aligned with live
	ids    []int    // event ids, aligned with live
	ref    refQueue
	now    float64 // reference clock
	nextID int
}

func newSchedTrio(t testing.TB) *schedTrio {
	return &schedTrio{t: t, s: [2]*Scheduler{NewSchedulerWith(QueueHeap4), NewSchedulerWith(QueueCalendar)}}
}

// record is every event's callback body: note the id and check that the
// backend's clock never runs backwards.
func (tr *schedTrio) record(k, id int) {
	if now := tr.s[k].Now(); now < tr.lastAt[k] {
		tr.t.Fatalf("%s: clock ran backwards, %v after %v", queueKinds[k].name, now, tr.lastAt[k])
	} else {
		tr.lastAt[k] = now
	}
	tr.fired[k] = append(tr.fired[k], id)
}

// fuzzMaxLive bounds the population: the reference and the invariant
// check are O(n) per operation.
const fuzzMaxLive = 4096

// schedule queues one event d from now on all three, through the API
// variant selected by how.
func (tr *schedTrio) schedule(how byte, d float64) {
	if len(tr.ids) >= fuzzMaxLive {
		return
	}
	id := tr.nextID
	tr.nextID++
	at := tr.now + d
	for k, s := range tr.s {
		k := k
		var h Handle
		switch how % 3 {
		case 0:
			h = s.At(at, func() { tr.record(k, id) })
		case 1:
			h = s.After(d, func() { tr.record(k, id) })
		default:
			h = s.AtArg(at, func(x any) { tr.record(k, x.(int)) }, id)
		}
		if !h.Scheduled() || h.Time() != at {
			tr.t.Fatalf("%s: fresh handle Scheduled=%v Time=%v, want %v", queueKinds[k].name, h.Scheduled(), h.Time(), at)
		}
		tr.live[k] = append(tr.live[k], h)
	}
	tr.seqs = append(tr.seqs, tr.ref.schedule(at, id))
	tr.ids = append(tr.ids, id)
}

// retire moves the live entry at index i to the stale lists.
func (tr *schedTrio) retire(i int) {
	last := len(tr.ids) - 1
	for k := range tr.s {
		tr.stale[k] = append(tr.stale[k], tr.live[k][i])
		tr.live[k][i] = tr.live[k][last]
		tr.live[k] = tr.live[k][:last]
	}
	tr.seqs[i], tr.ids[i] = tr.seqs[last], tr.ids[last]
	tr.seqs, tr.ids = tr.seqs[:last], tr.ids[:last]
}

// expect pops the reference events due by bound (at most limit of
// them) and requires both backends to have fired exactly those, then
// agree with the reference on clock and population.
func (tr *schedTrio) expect(bound float64, limit int, now float64) {
	var want []int
	for len(want) < limit && len(tr.ref.events) > 0 && tr.ref.events[0].at <= bound {
		e, _ := tr.ref.pop()
		want = append(want, e.id)
		if now < e.at {
			now = e.at
		}
		for i, id := range tr.ids {
			if id == e.id {
				tr.retire(i)
				break
			}
		}
	}
	tr.now = now
	for k, s := range tr.s {
		name := queueKinds[k].name
		if len(tr.fired[k]) != len(want) {
			tr.t.Fatalf("%s fired %v, reference %v", name, tr.fired[k], want)
		}
		for i := range want {
			if tr.fired[k][i] != want[i] {
				tr.t.Fatalf("%s fired %v, reference %v", name, tr.fired[k], want)
			}
		}
		tr.fired[k] = tr.fired[k][:0]
		if s.Now() != tr.now {
			tr.t.Fatalf("%s clock %v, reference %v", name, s.Now(), tr.now)
		}
		if s.Len() != len(tr.ref.events) {
			tr.t.Fatalf("%s holds %d events, reference %d", name, s.Len(), len(tr.ref.events))
		}
	}
	calCheck(tr.t, tr.s[1])
}

// run interprets data as (opcode, operand) pairs.
func (tr *schedTrio) run(data []byte) {
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		switch op % 10 {
		case 0, 1, 2:
			tr.schedule(op, fuzzDelay(arg))
		case 3: // a burst, so short inputs reach the growth and re-tune triggers
			for j := 0; j < 4*int(arg); j++ {
				tr.schedule(2, fuzzDelay(byte(j*37)+arg))
			}
		case 4: // cancel a live event
			if n := len(tr.ids); n > 0 {
				j := int(arg) % n
				for k, s := range tr.s {
					s.Cancel(tr.live[k][j])
				}
				tr.ref.cancel(tr.seqs[j])
				tr.retire(j)
			}
		case 5: // cancel through a stale handle: a no-op
			for k, s := range tr.s {
				if n := len(tr.stale[k]); n > 0 {
					h := tr.stale[k][int(arg)%n]
					if h.Scheduled() {
						tr.t.Fatalf("%s: stale handle reports Scheduled", queueKinds[k].name)
					}
					s.Cancel(h)
				}
			}
		case 6, 7:
			for _, s := range tr.s {
				s.Step()
			}
			tr.expect(math.Inf(1), 1, tr.now)
			continue
		case 8:
			end := tr.now + fuzzDelay(arg)
			for _, s := range tr.s {
				s.RunUntil(end)
			}
			tr.expect(end, math.MaxInt, end)
			continue
		case 9:
			if arg%8 != 0 { // keep Reset rare enough that populations build up
				continue
			}
			for k, s := range tr.s {
				s.Reset()
				tr.stale[k] = append(tr.stale[k], tr.live[k]...)
				tr.live[k] = tr.live[k][:0]
				tr.lastAt[k] = 0
			}
			tr.ref = refQueue{}
			tr.seqs, tr.ids = tr.seqs[:0], tr.ids[:0]
			tr.now = 0
		}
		tr.expect(math.Inf(-1), 0, tr.now)
	}
	for _, s := range tr.s {
		s.Run()
	}
	tr.expect(math.Inf(1), math.MaxInt, tr.now)
	for _, s := range tr.s {
		s.Release()
	}
}

// FuzzSchedulerOrder feeds one byte-coded operation sequence (At, After,
// AtArg, bursts, Cancel, stale Cancel, Step, RunUntil, Reset) to the
// calendar queue, the 4-ary heap and the sorted-slice reference, and
// requires identical firing sequences, clocks that never run backwards,
// and an intact calendar after every operation. Without -fuzz it runs
// the seed corpus as a plain test.
func FuzzSchedulerOrder(f *testing.F) {
	// The look-ahead sequence: an event at +10 s, RunUntil short of it,
	// then an event before it.
	f.Add([]byte{2, 6 | 1<<3, 8, 5 | 20<<3, 2, 5 | 4<<3, 6, 0, 6, 0})
	// A burst that crosses the growth trigger, churn and cancels inside
	// it, a drain that crosses the shrink trigger, and a Reset.
	burst := []byte{3, 255, 3, 130}
	for i := 0; i < 300; i++ {
		burst = append(burst, byte(i%3), byte(i*7), 4, byte(i*13), 6, 0, 8, byte(i)&0x0f|1)
	}
	burst = append(burst, 8, 6|31<<3, 9, 0, 3, 40, 8, 7|31<<3)
	f.Add(burst)
	// Equal times, sub-nanosecond spacing and far stragglers together.
	f.Add([]byte{3, 64, 0, 0, 1, 1 | 5<<3, 2, 7, 3, 200, 5, 1, 4, 9, 8, 3 | 9<<3, 6, 0, 8, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		newSchedTrio(t).run(data)
	})
}
