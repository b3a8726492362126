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

// schedPair drives the scheduler and the sorted-slice reference through
// one operation sequence.
type schedPair struct {
	t      testing.TB
	s      *Scheduler
	fired  []int
	lastAt float64
	live   []Handle // pending handles
	stale  []Handle
	seqs   []uint64 // reference sequence numbers, aligned with live
	ids    []int    // event ids, aligned with live
	ref    refQueue
	now    float64 // reference clock
	nextID int
}

// record is every event's callback body: note the id and check that the
// clock never runs backwards.
func (p *schedPair) record(id int) {
	if now := p.s.Now(); now < p.lastAt {
		p.t.Fatalf("clock ran backwards, %v after %v", now, p.lastAt)
	} else {
		p.lastAt = now
	}
	p.fired = append(p.fired, id)
}

// fuzzMaxLive bounds the population: the reference and the invariant
// check are O(n) per operation.
const fuzzMaxLive = 4096

// schedule queues one event d from now on both, through the API variant
// selected by how.
func (p *schedPair) schedule(how byte, d float64) {
	if len(p.ids) >= fuzzMaxLive {
		return
	}
	id := p.nextID
	p.nextID++
	at := p.now + d
	var h Handle
	switch how % 3 {
	case 0:
		h = p.s.At(at, func() { p.record(id) })
	case 1:
		h = p.s.After(d, func() { p.record(id) })
	default:
		h = p.s.AtArg(at, func(x any) { p.record(x.(int)) }, id)
	}
	if !h.Scheduled() {
		p.t.Fatalf("fresh handle for %v not Scheduled", at)
	}
	p.live = append(p.live, h)
	p.seqs = append(p.seqs, p.ref.schedule(at, id))
	p.ids = append(p.ids, id)
}

// retire moves the live entry at index i to the stale list.
func (p *schedPair) retire(i int) {
	last := len(p.ids) - 1
	p.stale = append(p.stale, p.live[i])
	p.live[i] = p.live[last]
	p.live = p.live[:last]
	p.seqs[i], p.ids[i] = p.seqs[last], p.ids[last]
	p.seqs, p.ids = p.seqs[:last], p.ids[:last]
}

// expect pops the reference events due by bound (at most limit of
// them) and requires the scheduler to have fired exactly those, then
// agree with the reference on clock and population.
func (p *schedPair) expect(bound float64, limit int, now float64) {
	var want []int
	for len(want) < limit && len(p.ref.events) > 0 && p.ref.events[0].at <= bound {
		e, _ := p.ref.pop()
		want = append(want, e.id)
		if now < e.at {
			now = e.at
		}
		for i, id := range p.ids {
			if id == e.id {
				p.retire(i)
				break
			}
		}
	}
	p.now = now
	if len(p.fired) != len(want) {
		p.t.Fatalf("fired %v, reference %v", p.fired, want)
	}
	for i := range want {
		if p.fired[i] != want[i] {
			p.t.Fatalf("fired %v, reference %v", p.fired, want)
		}
	}
	p.fired = p.fired[:0]
	if p.s.Now() != p.now {
		p.t.Fatalf("clock %v, reference %v", p.s.Now(), p.now)
	}
	if p.s.Len() != len(p.ref.events) {
		p.t.Fatalf("%d events pending, reference %d", p.s.Len(), len(p.ref.events))
	}
	calCheck(p.t, p.s)
}

// run interprets data as (opcode, operand) pairs.
func (p *schedPair) run(data []byte) {
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		switch op % 10 {
		case 0, 1, 2:
			p.schedule(op, fuzzDelay(arg))
		case 3: // a burst, so short inputs reach the growth and re-tune triggers
			for j := 0; j < 4*int(arg); j++ {
				p.schedule(2, fuzzDelay(byte(j*37)+arg))
			}
		case 4: // cancel a live event
			if n := len(p.ids); n > 0 {
				j := int(arg) % n
				p.s.Cancel(p.live[j])
				p.ref.cancel(p.seqs[j])
				p.retire(j)
			}
		case 5: // cancel through a stale handle: a no-op
			if n := len(p.stale); n > 0 {
				h := p.stale[int(arg)%n]
				if h.Scheduled() {
					p.t.Fatalf("stale handle reports Scheduled")
				}
				p.s.Cancel(h)
			}
		case 6, 7:
			p.s.Step()
			p.expect(math.Inf(1), 1, p.now)
			continue
		case 8:
			end := p.now + fuzzDelay(arg)
			p.s.RunUntil(end)
			p.expect(end, math.MaxInt, end)
			continue
		case 9:
			if arg%8 != 0 { // keep Reset rare enough that populations build up
				continue
			}
			p.s.Reset()
			p.stale = append(p.stale, p.live...)
			p.live = p.live[:0]
			p.lastAt = 0
			p.ref = refQueue{}
			p.seqs, p.ids = p.seqs[:0], p.ids[:0]
			p.now = 0
		}
		p.expect(math.Inf(-1), 0, p.now)
	}
	p.s.Run()
	p.expect(math.Inf(1), math.MaxInt, p.now)
	p.s.Release()
}

// FuzzSchedulerOrder feeds one byte-coded operation sequence (At, After,
// AtArg, bursts, Cancel, stale Cancel, Step, RunUntil, Reset) to the
// scheduler and the sorted-slice reference, and requires identical
// firing sequences, a clock that never runs backwards, and an intact
// calendar after every operation. Without -fuzz it runs the seed corpus
// as a plain test.
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
	// Handles from before a Reset: a stale Cancel into the emptied slot
	// table, then one on the slot a fresh event has taken.
	f.Add([]byte{0, 11, 0, 11, 9, 0, 5, 1, 0, 11, 5, 0, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		(&schedPair{t: t, s: NewScheduler()}).run(data)
	})
}
