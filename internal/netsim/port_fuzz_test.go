package netsim

import (
	"testing"

	"tfrc/internal/sim"
)

// FuzzPortTable drives two nodes' delivery tables through binds,
// unbinds and deliveries against a map per node. Every op is two bytes:
// the first's low two bits pick attach, detach, deliver or renew, its
// next bit the node, and the second, as a signed byte, the port. Detach
// is by the agent the model binds to the port, or, when bit 3 is set, by
// the agent the high four bits pick (modulo the agents made so far, old
// networks' included), which must unbind the port only if it is the one
// bound there. Renew resets the scheduler, whose arena scrubs the
// network's port tables, and builds a new network on it, whose recycled
// node slots keep their tables' storage: a previous tenant's agents
// past the new table's length must read unbound. After every op each
// port from -130 to 130 must
// resolve to the model's agent, every agent must have received exactly
// the packets sent to its bindings, and a table must be exactly as long
// as the highest port bound on its node plus one.
func FuzzPortTable(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 2, 3, 2, 9, 1, 3, 2, 3})                      // bind, deliver, miss, unbind
	f.Add([]byte{0, 40, 4, 40, 0, 40, 2, 40, 6, 40, 1, 40, 0, 40})         // the same port on both nodes
	f.Add([]byte{0, 100, 0, 5, 3, 0, 0, 7, 2, 100, 2, 50, 0, 100, 2, 100}) // stale agents past a recycled table
	f.Add([]byte{0, 120, 11, 0, 4, 3, 2, 120, 0, 0xf9, 2, 0xf9})           // renewed; a negative port
	f.Add([]byte{0, 5, 0, 6, 0x19, 5, 2, 5, 9, 6, 2, 6, 1, 6, 2, 6})       // strangers' detaches, then the owner's
	f.Fuzz(func(t *testing.T, data []byte) {
		sched := sim.NewScheduler()
		var (
			nw     *Network
			nodes  [2]*Node
			model  [2]map[int]*portSink
			hi     [2]int // highest port bound since the node was made, -1 for none
			agents []*portSink
			want   []int // packets each agent must have received
		)
		renew := func() {
			nw = New(sched)
			for i := range nodes {
				nodes[i] = nw.NewNode()
				model[i] = map[int]*portSink{}
				hi[i] = -1
			}
		}
		renew()
		for step := 0; step+1 < len(data); step += 2 {
			op, which, port := data[step]&3, int(data[step]>>2&1), int(int8(data[step+1]))
			n, m := nodes[which], model[which]
			switch op {
			case 0:
				a := &portSink{nw: nw}
				refused := func() (refused bool) {
					defer func() { refused = recover() != nil }()
					n.Attach(port, a)
					return false
				}()
				if _, bound := m[port]; refused != (bound || port < 0) {
					t.Fatalf("step %d: Attach(%d) refused=%v with the port bound=%v", step, port, refused, bound)
				}
				if !refused {
					m[port] = a
					hi[which] = max(hi[which], port)
					agents = append(agents, a)
					want = append(want, 0)
				}
			case 1:
				a := m[port]
				if data[step]&8 != 0 && len(agents) > 0 {
					a = agents[int(data[step]>>4)%len(agents)]
				}
				n.Detach(port, a)
				if m[port] == a {
					delete(m, port)
				}
			case 2:
				p := nw.NewPacket()
				p.Dst, p.DstPort = n.ID, port
				n.Send(p)
				if a := m[port]; a != nil {
					for i, b := range agents {
						if b == a {
							want[i]++
						}
					}
				}
				if live := nw.Pool().Live(); live != 0 {
					t.Fatalf("step %d: %d packets live after a delivery", step, live)
				}
			case 3:
				sched.Reset()
				renew()
			}
			for i, a := range agents {
				if a.n != want[i] {
					t.Fatalf("step %d: agent %d received %d packets, want %d", step, i, a.n, want[i])
				}
			}
			for w, n := range nodes {
				for port := -130; port <= 130; port++ {
					var want Agent
					if a := model[w][port]; a != nil {
						want = a
					}
					if got := n.Agent(port); got != want {
						t.Fatalf("step %d: node %d port %d holds %v, want %v", step, w, port, got, want)
					}
				}
				if len(n.ports) != hi[w]+1 {
					t.Fatalf("step %d: node %d table of %d entries, highest port bound %d", step, w, len(n.ports), hi[w])
				}
			}
		}
	})
}
