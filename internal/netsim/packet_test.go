package netsim

import (
	"math/rand"
	"testing"
)

// TestPoolProperty drives the pool with random Get, Put and reset, every
// packet scribbled on while it is out and some still out at each reset.
// Every Get must be all-zero, no packet may be out twice, Live must
// balance, and straight after a reset the pool must bump through the
// same addresses in the same order as after every earlier one.
func TestPoolProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pl Pool
	var order []*Packet // addresses in bump order, as first observed
	var held []*Packet
	out := map[*Packet]bool{}
	get := func() *Packet {
		p := pl.Get()
		if *p != (Packet{}) {
			t.Fatalf("Get returned a dirty packet: %+v", *p)
		}
		if out[p] {
			t.Fatalf("packet %p is out twice", p)
		}
		out[p] = true
		held = append(held, p)
		*p = Packet{Kind: KindAck, Seq: rng.Int63(), NumSack: 2, hops: 3, impHeld: true, net: &Network{}}
		return p
	}
	for epoch := 0; epoch < 20; epoch++ {
		for i, n := 0, len(order)+rng.Intn(40); i < n; i++ {
			p := get()
			if i == len(order) {
				order = append(order, p)
			} else if p != order[i] {
				t.Fatalf("epoch %d: Get %d after reset is %p, was %p", epoch, i, p, order[i])
			}
		}
		for op := 0; op < 300; op++ {
			if len(held) == 0 || rng.Intn(2) == 0 {
				get()
			} else {
				i := rng.Intn(len(held))
				p := held[i]
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
				delete(out, p)
				pl.Put(p)
			}
			if pl.Live() != len(held) {
				t.Fatalf("epoch %d: Live = %d with %d packets out", epoch, pl.Live(), len(held))
			}
		}
		if len(held) == 0 {
			t.Fatalf("epoch %d: nothing checked out at reset; the test would not cover it", epoch)
		}
		pl.reset()
		held = held[:0]
		clear(out)
		if pl.Live() != 0 {
			t.Fatalf("epoch %d: Live = %d after reset", epoch, pl.Live())
		}
	}
}
