// Package tcp implements one-way TCP data senders and ACK sinks for the
// simulator, in the style of ns-2's Tahoe/Reno/NewReno/Sack1 agents:
// sequence numbers count packets, an infinite backlog is assumed, and the
// congestion window is a float in packet units. These are the baselines
// the paper evaluates TFRC against, including variants with coarse (500 ms
// FreeBSD-like) and aggressive (Solaris-like) retransmit timers.
package tcp

import "tfrc/internal/sim"

// rangeSet is an ordered set of disjoint half-open int64 intervals,
// used for the sink's received-sequence record and the sender's
// SACK scoreboard.
type rangeSet struct {
	r []srange
}

type srange struct{ start, end int64 }

// searchEndAtLeast returns the index of the first range whose end is ≥ v.
// Open-coded binary search: sort.Search's closure argument escapes and
// would put an allocation on every ACK.
func (s *rangeSet) searchEndAtLeast(v int64) int {
	lo, hi := 0, len(s.r)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.r[mid].end < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// minRanges is the capacity a set's first growth reaches: a flow that
// sees one hole takes one 128-byte segment from its arena's carver, not
// append-from-nil's three allocations, and a flow that sees none takes
// nothing.
const minRanges = 8

// add inserts [start, end), merging overlapping and adjacent ranges.
// The merge is done in place: the backing array is reused, so
// steady-state adds on the ACK path allocate nothing. A set that must
// grow takes its new backing from mem, so the scoreboards of a cold
// cell share a few chunks instead of allocating one each.
func (s *rangeSet) add(mem *sim.Carver[srange], start, end int64) {
	if start >= end {
		return
	}
	i := s.searchEndAtLeast(start)
	j := i
	for j < len(s.r) && s.r[j].start <= end {
		if s.r[j].start < start {
			start = s.r[j].start
		}
		if s.r[j].end > end {
			end = s.r[j].end
		}
		j++
	}
	if i == j {
		// Pure insertion: shift the tail up one slot.
		s.r = mem.Reserve(s.r, max(len(s.r)+1, minRanges))
		s.r = s.r[:len(s.r)+1]
		copy(s.r[i+1:], s.r[i:])
		s.r[i] = srange{start, end}
		return
	}
	// Ranges [i, j) collapse into one; shift the tail down in place.
	s.r[i] = srange{start, end}
	s.r = append(s.r[:i+1], s.r[j:]...)
}

// clear empties the set in place, keeping the backing array so later
// adds reuse it instead of regrowing from nil.
func (s *rangeSet) clear() { s.r = s.r[:0] }

// contains reports whether seq is covered.
func (s *rangeSet) contains(seq int64) bool {
	i := s.searchEndAtLeast(seq + 1)
	return i < len(s.r) && s.r[i].start <= seq
}

// covered reports whether all of [start, end) is covered.
func (s *rangeSet) covered(start, end int64) bool {
	i := s.searchEndAtLeast(start + 1)
	return i < len(s.r) && s.r[i].start <= start && s.r[i].end >= end
}

// firstGapAtOrAfter returns the lowest seq ≥ from that is not covered.
func (s *rangeSet) firstGapAtOrAfter(from int64) int64 {
	for _, rg := range s.r {
		if rg.end <= from {
			continue
		}
		if rg.start > from {
			return from
		}
		from = rg.end
	}
	return from
}

// dropBelow discards state below seq (already cumulatively acked). The
// survivors are copied down so the backing array's origin never drifts —
// re-slicing from the middle would force add's insertions to regrow it.
func (s *rangeSet) dropBelow(seq int64) {
	i := 0
	for i < len(s.r) && s.r[i].end <= seq {
		i++
	}
	if i > 0 {
		n := copy(s.r, s.r[i:])
		s.r = s.r[:n]
	}
	if len(s.r) > 0 && s.r[0].start < seq {
		s.r[0].start = seq
	}
}

// countIn returns how many sequence numbers within [start, end) are
// covered.
func (s *rangeSet) countIn(start, end int64) int64 {
	var n int64
	for _, rg := range s.r {
		lo, hi := rg.start, rg.end
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			n += hi - lo
		}
	}
	return n
}

// newestInto fills buf with up to len(buf) ranges, most recently useful
// first (highest sequence ranges first), and returns how many it wrote —
// the allocation-free fill for a SACK option on the per-ACK path.
func (s *rangeSet) newestInto(buf []srange) int {
	n := 0
	for i := len(s.r) - 1; i >= 0 && n < len(buf); i-- {
		buf[n] = s.r[i]
		n++
	}
	return n
}
