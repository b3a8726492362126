package sim

import (
	"slices"
	"testing"
)

// TestSlabStableAddresses pins the contract every arena rides on: slots
// never move, Reset replays the same addresses in the same order, Put
// returns come back before the bump pointer moves, and Each visits
// exactly what the bump pointer has issued.
func TestSlabStableAddresses(t *testing.T) {
	type cell struct {
		id   int
		grew []int // stands in for a scoreboard or ring the slot keeps
	}
	var s Slab[cell]
	each := func() []*cell {
		var got []*cell
		s.Each(func(c *cell) { got = append(got, c) })
		return got
	}
	if len(each()) != 0 {
		t.Fatal("an empty slab walked something")
	}

	// Enough to cross every chunk size up to the cap and three chunks at it.
	n := 5 * slabMaxChunk
	first := make([]*cell, n)
	seen := map[*cell]bool{}
	for i := range first {
		c := s.Get()
		if seen[c] {
			t.Fatalf("slot %d handed out twice", i)
		}
		seen[c] = true
		c.id = i
		c.grew = make([]int, 0, 1+i%7)
		first[i] = c
		if i == 0 || i == slabFirstChunk || i == n-1 {
			// Chunks were added since the earlier slots were issued.
			for j, p := range first[:i+1] {
				if p.id != j {
					t.Fatalf("after %d gets slot %d reads id %d: a chunk moved", i+1, j, p.id)
				}
			}
			if got := each(); !slices.Equal(got, first[:i+1]) {
				t.Fatalf("after %d gets Each walked %d slots, not the issued prefix", i+1, len(got))
			}
		}
	}
	for i, c := range s.chunks {
		want := min(slabFirstChunk<<min(i, 30), slabMaxChunk)
		if len(c) != want {
			t.Fatalf("chunk %d holds %d slots, want %d", i, len(c), want)
		}
	}

	// Free-list returns are reused, newest first, before the bump pointer
	// moves, and stay part of the walk.
	s.Put(first[3])
	s.Put(first[40])
	if a, b := s.Get(), s.Get(); a != first[40] || b != first[3] {
		t.Fatal("Put slots were not the next ones handed out")
	}
	if fresh := s.Get(); seen[fresh] {
		t.Fatal("an empty free list handed out a live slot")
	}
	if got := each(); len(got) != n+1 || !slices.Equal(got[:n], first) {
		t.Fatalf("Each walked %d slots after free-list traffic, want %d", len(got), n+1)
	}

	// Reset: same addresses, same order, contents as their users left
	// them, free list forgotten.
	s.Put(first[5])
	chunks := len(s.chunks)
	s.Reset()
	if len(each()) != 0 {
		t.Fatal("Each walked slots after Reset")
	}
	for i := range first {
		c := s.Get()
		if c != first[i] {
			t.Fatalf("after Reset slot %d is at a new address", i)
		}
		if c.id != i || cap(c.grew) != 1+i%7 {
			t.Fatalf("after Reset slot %d lost what its tenant grew", i)
		}
		if i == slabFirstChunk+2 {
			if got := each(); !slices.Equal(got, first[:i+1]) {
				t.Fatalf("mid-replay Each walked %d slots, want %d", len(got), i+1)
			}
		}
	}
	s.Get()
	if len(s.chunks) != chunks {
		t.Fatalf("replaying a cell grew the slab from %d to %d chunks", chunks, len(s.chunks))
	}
}
