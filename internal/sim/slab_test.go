package sim

import (
	"runtime"
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

// TestSlabFirstChunkIsItsOwn pins what a cold slab costs: its first
// slabFirstChunk values sit in the slab itself, chunk table included,
// so they cost no allocation, and the value after them costs exactly one,
// the second chunk. The cheapest of three tries is judged, as MemStats
// counts the whole process.
func TestSlabFirstChunkIsItsOwn(t *testing.T) {
	type agent struct {
		seq, acked int64
		ring       []int
	}
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	first, next := ^uint64(0), ^uint64(0)
	for try := 0; try < 3; try++ {
		s := new(Slab[agent])
		got := make([]*agent, 0, slabFirstChunk+1)
		first = min(first, mallocs(func() {
			for range slabFirstChunk {
				got = append(got, s.Get())
			}
		}))
		next = min(next, mallocs(func() { got = append(got, s.Get()) }))
		for i, a := range got {
			a.seq = int64(i)
		}
		for i, a := range got {
			if a.seq != int64(i) {
				t.Fatalf("slot %d shares storage with another", i)
			}
		}
	}
	t.Logf("a fresh slab's first %d values: %d allocations; the next: %d", slabFirstChunk, first, next)
	if first != 0 || next != 1 {
		t.Errorf("a fresh slab's first %d values cost %d allocations and the next %d, want 0 and 1",
			slabFirstChunk, first, next)
	}
}

// TestCarverSegmentsAreDisjoint pins what netsim's node and queue slots
// rely on: a segment is zeroed, never overlapped by a later one, and
// clipped to its length so an append cannot run into its neighbour.
func TestCarverSegmentsAreDisjoint(t *testing.T) {
	var c Carver[*int]
	owner := map[**int]int{} // element address → the segment it belongs to
	var segs [][]*int
	take := func(n int) {
		s := c.Take(n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("Take(%d) returned len %d cap %d", n, len(s), cap(s))
		}
		for i := range s {
			if s[i] != nil {
				t.Fatalf("segment %d element %d is not zeroed", len(segs), i)
			}
			if other, taken := owner[&s[i]]; taken {
				t.Fatalf("segment %d overlaps segment %d", len(segs), other)
			}
			owner[&s[i]] = len(segs)
			s[i] = new(int)
		}
		segs = append(segs, s)
	}
	for round := 0; round < 20; round++ {
		for _, n := range []int{1, 2, 8, carveSmall, 3, 16, 1, carveSmall, 5, 8, 8, 2} {
			take(n)
		}
	}
	take(carveSmall + 1) // its own allocation, and not out of the chunk
	take(4 * carveChunk)

	// An append to a full segment must move it, not write into the next.
	next := segs[1][0]
	_ = append(segs[0], new(int))
	if segs[1][0] != next {
		t.Fatal("append to a segment overwrote its neighbour")
	}

	var none *Carver[*int]
	if s := none.Take(5); len(s) != 5 || cap(s) != 5 {
		t.Fatalf("nil carver: Take(5) returned len %d cap %d", len(s), cap(s))
	}
}

// The small segments cost the chunks that hold them, not an allocation
// each.
func TestCarverBatchesSmallSegments(t *testing.T) {
	const segments = 400 // of 4 elements: 1600 in all
	var c Carver[int]
	perRun := testing.AllocsPerRun(1, func() {
		c = Carver[int]{}
		for i := 0; i < segments; i++ {
			c.Take(4)
		}
	})
	// Chunks of carveSmall, 2·carveSmall, … up to carveChunk, then carveChunk each.
	want := 0
	for size, left := 0, 4*segments; left > 0; left -= size {
		size = max(min(2*size, carveChunk), carveSmall)
		want++
	}
	if int(perRun) != want {
		t.Errorf("%d four-element segments cost %v allocations, want the %d chunks that hold them", segments, perRun, want)
	}
}

func TestCarverReserve(t *testing.T) {
	const n = 2100 // just past a power of two: doubling would end at 4096
	var c Carver[*int]
	var s []*int
	var all []*int
	for i := 0; i < n; i++ {
		before := s
		s = c.Reserve(s, len(s)+1)
		if len(s) != len(before) || cap(s) <= len(s) {
			t.Fatalf("Reserve at length %d returned len %d cap %d", len(before), len(s), cap(s))
		}
		if cap(before) > 0 && &s[:1][0] != &before[:1][0] {
			// Moved, the contents carried over. While small: twice the
			// room, and the segment left behind in its chunk scrubbed so
			// it pins nothing.
			if cap(before) < carveSmall && cap(s) < 2*cap(before) {
				t.Fatalf("grew from %d to %d, want at least double", cap(before), cap(s))
			}
			for _, p := range before[:min(cap(before), carveSmall)] {
				if cap(before) <= carveSmall && p != nil {
					t.Fatal("the abandoned segment still points at its old contents")
				}
			}
		}
		p := new(int)
		s, all = append(s, p), append(all, p)
		if !slices.Equal(s, all) {
			t.Fatalf("contents lost at length %d", len(s))
		}
	}
	// Past what a carver batches the runtime's growth curve takes over,
	// and that stops doubling at 256 elements.
	if cap(s) > n*3/2 {
		t.Errorf("%d elements sit in a backing of %d: large tables must not double", n, cap(s))
	}
}

// TestSlabFreeListGrowsOncePerChunk pins Put's growth rule: putting back
// every slot of a slab that has grown k chunks allocates the free list
// at most k times, and a Reset slab keeps it. The cheapest of three
// tries is judged, as MemStats counts the whole process.
func TestSlabFreeListGrowsOncePerChunk(t *testing.T) {
	if slabFirstChunk<<(slabRun-1) != slabMaxChunk {
		t.Fatalf("slabRun = %d does not run %d to %d by doubling", slabRun, slabFirstChunk, slabMaxChunk)
	}
	// The whole doubling run and three chunks at the cap.
	n := slabFirstChunk*(1<<slabRun-1) + 3*slabMaxChunk
	var s Slab[int]
	got := make([]*int, n)
	putAll := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, x := range got {
			s.Put(x)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	cold, warm := ^uint64(0), ^uint64(0)
	for try := 0; try < 3; try++ {
		s = Slab[int]{}
		for i := range got {
			got[i] = s.Get()
		}
		cold = min(cold, putAll())
		s.Reset()
		for i := range got {
			got[i] = s.Get()
		}
		warm = min(warm, putAll())
	}
	k := len(s.chunks)
	t.Logf("%d slots in %d chunks put back: %d free-list allocations cold, %d after Reset", n, k, cold, warm)
	if cold > uint64(k) {
		t.Errorf("putting back %d slots of %d chunks allocated %d times, more than once per chunk", n, k, cold)
	}
	if warm != 0 {
		t.Errorf("after Reset the free list allocated %d times", warm)
	}
}
