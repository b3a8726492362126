package netsim

import (
	"math/bits"
	"testing"

	"tfrc/internal/sim"
)

// FuzzFifoRing drives a DropTail's ring through pushes, pops and slot
// recycling against a plain slice. The first byte picks the limit; every
// later byte is an op: low two bits 0–1 push a burst of (b>>2)%9+1, 2
// pops that many, 3 recycles the ring as a slab slot's next tenant would.
// After every op the ring must hold the reference's packets in order, be
// a power of two no larger than the next one at or above the limit
// (fifoMinRing at least), and be nil outside its live window.
func FuzzFifoRing(f *testing.F) {
	f.Add([]byte{60, 0x20, 0x20, 0x22, 0x20, 0x20, 0x20, 0x20, 0x22, 0x20})  // grow while wrapped
	f.Add([]byte{3, 0x20, 0x0a, 0x20, 0x0a, 0x20})                           // limit below the first ring
	f.Add([]byte{200, 0x20, 0x20, 0x20, 0x20, 0x03, 0x20, 0x06, 0x20, 0x20}) // recycle a grown ring
	f.Add([]byte{7, 0x1c, 0x0e, 0x1c, 0x0e, 0x1c, 0x0e, 0x1c, 0x0e})         // exactly one ring, wrapping
	f.Add([]byte{255, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		limit := int(data[0]) + 1
		maxRing := max(fifoMinRing, 1<<bits.Len(uint(limit-1)))
		q := NewDropTail(limit)
		q.mem = new(sim.Carver[*Packet]) // rings cut from chunks, as a Network's queues cut theirs
		var ref []*Packet
		seq := 0
		for step, b := range data[1:] {
			burst := int(b>>2)%9 + 1
			switch b & 3 {
			case 0, 1:
				for i := 0; i < burst; i++ {
					p := mkPkt(1+seq%5, seq)
					seq++
					if ok := q.Enqueue(p); ok != (len(ref) < limit) {
						t.Fatalf("step %d: enqueue at length %d of limit %d returned %v", step, len(ref), limit, ok)
					} else if ok {
						ref = append(ref, p)
					}
				}
			case 2:
				for i := 0; i < burst; i++ {
					var want *Packet
					if len(ref) > 0 {
						want, ref = ref[0], ref[1:]
					}
					if got := q.Dequeue(); got != want {
						t.Fatalf("step %d: dequeued %p, want %p", step, got, want)
					}
				}
			case 3:
				ring := cap(q.buf)
				q.fifo, ref = q.recycled(q.mem), nil
				if cap(q.buf) != ring {
					t.Fatalf("step %d: recycling changed the ring from %d to %d slots", step, ring, cap(q.buf))
				}
			}

			size := 0
			for _, p := range ref {
				size += p.Size
			}
			if q.Len() != len(ref) || q.Bytes() != size {
				t.Fatalf("step %d: len %d bytes %d, want %d / %d", step, q.Len(), q.Bytes(), len(ref), size)
			}
			ring := len(q.buf)
			if ring&(ring-1) != 0 || ring > maxRing {
				t.Fatalf("step %d: ring of %d slots for limit %d (want a power of two ≤ %d)", step, ring, limit, maxRing)
			}
			for i := 0; i < ring; i++ {
				var want *Packet
				if i < len(ref) {
					want = ref[i]
				}
				if got := q.buf[(q.head+i)&(ring-1)]; got != want {
					t.Fatalf("step %d: ring slot head+%d holds %p, want %p", step, i, got, want)
				}
			}
		}
	})
}
