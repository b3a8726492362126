package tcp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tfrc/internal/sim"
)

func TestRangeSetAddMerge(t *testing.T) {
	var s rangeSet
	s.add(nil, 5, 10)
	s.add(nil, 20, 25)
	s.add(nil, 10, 20) // bridges the gap
	if len(s.r) != 1 || s.r[0] != (srange{5, 25}) {
		t.Fatalf("ranges = %v, want [{5 25}]", s.r)
	}
}

func TestRangeSetContains(t *testing.T) {
	var s rangeSet
	s.add(nil, 3, 7)
	for seq, want := range map[int64]bool{2: false, 3: true, 6: true, 7: false} {
		if got := s.contains(seq); got != want {
			t.Fatalf("contains(%d) = %v", seq, got)
		}
	}
}

func TestRangeSetCovered(t *testing.T) {
	var s rangeSet
	s.add(nil, 0, 10)
	s.add(nil, 15, 20)
	if !s.covered(2, 8) {
		t.Fatal("covered(2,8) false")
	}
	if s.covered(8, 16) {
		t.Fatal("covered(8,16) true across a gap")
	}
}

func TestRangeSetFirstGap(t *testing.T) {
	var s rangeSet
	s.add(nil, 0, 5)
	s.add(nil, 7, 9)
	if g := s.firstGapAtOrAfter(0); g != 5 {
		t.Fatalf("gap = %d, want 5", g)
	}
	if g := s.firstGapAtOrAfter(7); g != 9 {
		t.Fatalf("gap = %d, want 9", g)
	}
	if g := s.firstGapAtOrAfter(100); g != 100 {
		t.Fatalf("gap = %d, want 100", g)
	}
}

func TestRangeSetDropBelow(t *testing.T) {
	var s rangeSet
	s.add(nil, 0, 10)
	s.add(nil, 15, 20)
	s.dropBelow(5)
	if len(s.r) != 2 || s.r[0] != (srange{5, 10}) {
		t.Fatalf("after dropBelow(5): %v", s.r)
	}
	s.dropBelow(12)
	if len(s.r) != 1 || s.r[0] != (srange{15, 20}) {
		t.Fatalf("after dropBelow(12): %v", s.r)
	}
}

func TestRangeSetCountIn(t *testing.T) {
	var s rangeSet
	s.add(nil, 0, 10)
	s.add(nil, 20, 30)
	if n := s.countIn(5, 25); n != 10 {
		t.Fatalf("countIn = %d, want 10", n)
	}
}

func TestRangeSetNewest(t *testing.T) {
	var s rangeSet
	s.add(nil, 0, 2)
	s.add(nil, 4, 6)
	s.add(nil, 8, 10)
	s.add(nil, 12, 14)
	var buf [3]srange
	n := s.newestInto(buf[:])
	got := buf[:n]
	if len(got) != 3 || got[0] != (srange{12, 14}) || got[2] != (srange{4, 6}) {
		t.Fatalf("newestInto = %v", got)
	}
}

func TestRangeSetPropertyMatchesNaive(t *testing.T) {
	// Property: the interval set agrees with a naive map-of-seqs model.
	f := func(ops []uint8) bool {
		var s rangeSet
		naive := map[int64]bool{}
		rng := rand.New(rand.NewSource(int64(len(ops))))
		for _, op := range ops {
			start := int64(op % 50)
			length := int64(rng.Intn(5)) + 1
			s.add(nil, start, start+length)
			for q := start; q < start+length; q++ {
				naive[q] = true
			}
		}
		for q := int64(0); q < 60; q++ {
			if s.contains(q) != naive[q] {
				return false
			}
		}
		// firstGap agrees with naive scan.
		for from := int64(0); from < 60; from += 7 {
			g := s.firstGapAtOrAfter(from)
			for q := from; q < g; q++ {
				if !naive[q] {
					return false
				}
			}
			if naive[g] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRangeSetsSharingACarverStayApart grows three range sets from one
// carver, past the largest segment it batches (sim's carveSmall, 32),
// by interleaved random adds and dropBelows, and checks each against a
// model set after every operation: a segment one set took, or left
// behind when it regrew, must never be written through another.
func TestRangeSetsSharingACarverStayApart(t *testing.T) {
	const (
		carveSmall = 32 // sim's: segments up to this size come from chunks
		ops        = 3000
		span       = 16 * carveSmall // random points this far above the floor stay mostly apart
	)
	var mem sim.Carver[srange]
	var sets [3]rangeSet
	var models [3]map[int64]bool
	var floors [3]int64
	for i := range models {
		models[i] = map[int64]bool{}
	}
	rng := rand.New(rand.NewSource(1))
	for op := range ops {
		i := rng.Intn(len(sets))
		s, model := &sets[i], models[i]
		if rng.Intn(40) == 0 {
			floors[i] += int64(rng.Intn(16))
			s.dropBelow(floors[i])
			for q := range model {
				if q < floors[i] {
					delete(model, q)
				}
			}
		} else {
			start := floors[i] + int64(rng.Intn(span))
			s.add(&mem, start, start+1)
			model[start] = true
		}
		for j := range sets {
			for q := floors[j] - 1; q <= floors[j]+span; q++ {
				if got := sets[j].contains(q); got != models[j][q] {
					t.Fatalf("op %d on set %d: set %d contains(%d) = %v, model says %v", op, i, j, q, got, !got)
				}
			}
		}
	}
	for j := range sets {
		if cap(sets[j].r) <= carveSmall {
			t.Errorf("set %d reached cap %d, want past carveSmall = %d", j, cap(sets[j].r), carveSmall)
		}
	}
}
