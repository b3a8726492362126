package sim

// Slab chunk sizes: the first chunk holds slabFirstChunk values and each
// later one twice the last, up to slabMaxChunk. A cold scenario with a
// dozen agents pays for 24 slots, a million-agent one for ~4k chunk
// headers instead of a million pointer-chased allocations.
const (
	slabFirstChunk = 8
	slabMaxChunk   = 256
	// slabRun is the number of chunks in the doubling run from
	// slabFirstChunk to slabMaxChunk: the slab's own chunk table holds
	// this many before it moves to the heap.
	slabRun = 6
)

// Slab is a chunked value pool: the one allocator behind every
// scheduler-attached arena. Chunks are never relocated, so the address
// of a handed-out value stays valid for the slab's lifetime — which is
// what lets agents, controllers, nodes, links, queues and packets live
// as values in slabs instead of as individually heap-allocated structs.
// The scheduler's random generators are values in a slab too, so a
// fresh one costs only its math/rand source. What a scenario has one or
// a few of — netsim's network, topology, dumbbell and monitors,
// traffic's generators, exp's scenario builder — sits in a Slab of
// pointers read through Next, so a cold cell pays per object. Get hands
// out free-list returns first, then bumps through the chunks; Reset
// makes everything available again in the original order, so a slot's
// grown backing (a scoreboard, a queue ring) meets the same tenant in
// the next cell. A slab holds its first chunk and its chunk table in
// itself, so its first slabFirstChunk values cost no allocation and each
// later chunk one, until the table outgrows its slabRun entries. When
// Put finds the free list full it grows to the slab's issued capacity,
// the most it can ever hold, so a slab pays one free-list allocation per
// chunk at most. Since its table points into itself, a slab is not
// copied once used (go vet's copylocks check sees the noCopy marker).
// Values come back as their last user left them: the caller resets what
// it needs and keeps the capacity it wants.
type Slab[T any] struct {
	_      noCopy
	chunks [][]T // value chunks; addresses into them are stable across reuse
	ci     int   // chunk the bump pointer is in
	off    int   // next unissued slot of chunks[ci]
	free   []*T  // recycled free-list backing
	table  [slabRun][]T
	first  [slabFirstChunk]T
}

// noCopy marks a struct that points into itself: go vet's copylocks
// check reports a copy of any struct that holds one.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Get returns a slot: the most recent Put if any, else the next unissued
// one, growing the slab by one chunk when all are issued.
func (s *Slab[T]) Get() *T {
	if n := len(s.free); n > 0 {
		x := s.free[n-1]
		s.free = s.free[:n-1]
		return x
	}
	if s.ci < len(s.chunks) && s.off == len(s.chunks[s.ci]) {
		s.ci++
		s.off = 0
	}
	if s.ci == len(s.chunks) {
		if s.ci == 0 {
			s.chunks = append(s.table[:0], s.first[:])
		} else {
			s.chunks = append(s.chunks, make([]T, min(2*len(s.chunks[s.ci-1]), slabMaxChunk)))
		}
	}
	x := &s.chunks[s.ci][s.off]
	s.off++
	return x
}

// Put hands a slot back for reuse by a later Get, ahead of the bump
// pointer. The caller must not use it afterwards.
func (s *Slab[T]) Put(x *T) {
	if len(s.free) == cap(s.free) {
		s.growFree()
	}
	s.free = append(s.free, x)
}

// growFree gives a full free list room for every slot the chunks hold:
// it can hold no more than were issued, so it grows at most once per
// chunk. Out of line, so a slab is one free-list allocation site per
// element type however its callers are inlined.
//
//go:noinline
func (s *Slab[T]) growFree() {
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	s.free = append(make([]*T, 0, n), s.free...)
}

// Reset makes every slot available again: Get then hands out the same
// addresses in the same order as after construction.
func (s *Slab[T]) Reset() {
	s.ci, s.off = 0, 0
	s.free = s.free[:0]
}

// Next returns the object in the next slot of a slab of pointers,
// allocating it the first time the slot is issued.
func Next[T any](s *Slab[*T]) *T {
	p := s.Get()
	if *p == nil {
		*p = new(T)
	}
	return *p
}

// Each calls f on every slot the bump pointer has issued since the last
// Reset, in issue order, including slots since handed back with Put.
func (s *Slab[T]) Each(f func(*T)) {
	for ci := 0; ci <= s.ci && ci < len(s.chunks); ci++ {
		c := s.chunks[ci]
		if ci == s.ci {
			c = c[:s.off]
		}
		for i := range c {
			f(&c[i])
		}
	}
}

// Carver sizes, in elements. The first chunk of a Carver holds
// carveSmall and each later one twice the last, up to carveChunk; a
// request above carveSmall is a plain allocation of its own. The many
// segments are the small ones — a host's one link and two ports, a ring
// of eight — so they are what is batched, a chunk's unused tail stays
// small beside what it saved, and what a tenant leaves behind in the
// chunks as it doubles is under 2·carveSmall.
const (
	carveSmall = 32
	carveChunk = 128
)

// Carver is the slab's sibling for slices: it batches the many small
// ones a scenario is built from — netsim's per-node link and port tables
// and queue rings, tcp's range sets — into a few chunks, where growing
// each by append from nil costs a cold cell an allocation per tenant per
// doubling. A segment belongs to whoever took it for good: a slab slot
// keeps the segments it took across reuse like any other backing it
// grew, so a carver has no reset and nothing comes back. The nil Carver
// allocates every request on its own.
type Carver[T any] struct {
	rest  []T // uncut remainder of the newest chunk
	chunk int // its size
}

// Take returns a zeroed segment of n elements that no later take
// overlaps, its capacity clipped to n. Out of line and with one make, so
// a carver is one allocation site per element type however its callers
// are inlined.
//
//go:noinline
func (c *Carver[T]) Take(n int) []T {
	batched := c != nil && n <= carveSmall
	if batched && n <= len(c.rest) {
		s := c.rest[:n:n]
		c.rest = c.rest[n:]
		return s
	}
	size := n
	if batched {
		c.chunk = max(min(2*c.chunk, carveChunk), carveSmall)
		size = c.chunk
	}
	fresh := make([]T, size)
	if batched {
		c.rest = fresh[n:]
	}
	return fresh[:n:n]
}

// Reserve returns s with room for at least n elements: s itself when it
// has it, else its contents moved to twice the room — a new segment
// while that is small enough to batch, the runtime's own growth step past
// it (append doubles only small slices, and a million-port table should
// not either). A segment left behind stays reachable in its chunk, so it
// is scrubbed of what it pointed at.
func (c *Carver[T]) Reserve(s []T, n int) []T {
	if n <= cap(s) {
		return s
	}
	old := s
	if size := max(n, 2*cap(s)); size <= carveSmall {
		s = c.Take(size)[:len(old)]
		copy(s, old)
	} else {
		var zero T
		for cap(s) < n {
			s = append(s[:cap(s)], zero) // one past full: the runtime picks the next capacity
		}
		s = s[:len(old)]
	}
	if cap(old) <= carveSmall {
		clear(old)
	}
	return s
}
