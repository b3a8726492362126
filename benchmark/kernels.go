package main

import (
	"encoding/json"
	"math/rand"
	"time"

	"tfrc/internal/cc"
	"tfrc/internal/core"
	"tfrc/internal/exp"
	"tfrc/internal/faults"
	"tfrc/internal/netsim"
	"tfrc/internal/shard"
	"tfrc/internal/sim"
	"tfrc/internal/sweep"
	"tfrc/internal/tcp"
	"tfrc/internal/tfrcsim"
	"tfrc/internal/traffic"
	"tfrc/internal/wire"
)

// kernelRun times a fixed number of calls into each layer's public
// functions, one layer at a time and no workload around them. Every
// value is the fast one (see fast) of a few rounds of the same loop.
type kernelRun struct {
	div    int // divides operation counts and standing populations (quick sizing)
	rounds int
	out    map[string]float64
}

func runKernels(div int) map[string]float64 {
	k := &kernelRun{div: div, rounds: 3, out: map[string]float64{}}
	if div > 1 {
		k.rounds = 1
	}
	k.host()
	k.sim()
	k.netsim()
	k.core()
	k.agents()
	k.cc()
	k.traffic()
	k.faults()
	k.sweepShardWire()
	return k.out
}

// n scales a standard count down for quick runs.
func (k *kernelRun) n(std int) int { return max(std/k.div, 10) }

// best runs round k.rounds times and keeps the fast value.
func (k *kernelRun) best(round func() float64) float64 {
	vals := make([]float64, k.rounds)
	for i := range vals {
		vals[i] = round()
	}
	return fast(vals)
}

// perOp times fn once and divides by the operations it performed.
func perOp(ops int, fn func()) float64 {
	t0 := now()
	fn()
	return float64(now().Sub(t0).Nanoseconds()) / float64(ops)
}

var sink uint64 // defeats dead-code elimination of pure kernels

func nop(any) {}

func unitDelays() []float64 {
	r := rand.New(rand.NewSource(1))
	d := make([]float64, 8192)
	for i := range d {
		d[i] = r.Float64()
	}
	return d
}

func (k *kernelRun) host() {
	n := k.n(20_000_000)
	k.out["host.spin_ns"] = k.best(func() float64 {
		x := uint64(88172645463325252)
		v := perOp(n, func() {
			for i := 0; i < n; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
		})
		sink += x
		return v
	})
}

func (k *kernelRun) sim() {
	delays := unitDelays()
	for _, p := range []struct {
		label string
		pop   int
	}{{"1k", 1_000}, {"100k", 100_000}, {"1m", 1_000_000}} {
		s := sim.NewScheduler()
		for i := 0; i < k.n(p.pop); i++ {
			s.AfterArg(delays[i%len(delays)], nop, nil)
		}
		n := k.n(300_000)
		k.out["sim.sched_ns_per_event."+p.label] = k.best(func() float64 {
			return perOp(n, func() {
				for i := 0; i < n; i++ {
					s.AfterArg(delays[i%len(delays)], nop, nil)
					s.Step()
				}
			})
		})
	}

	// Cancel alone: a batch is scheduled untimed, cancelled timed, and the
	// dead calendar entries are swept untimed by stepping the standing
	// population past them.
	{
		const batch = 1000
		s := sim.NewScheduler()
		for i := 0; i < 1000; i++ {
			s.AfterArg(delays[i], nop, nil)
		}
		hs := make([]sim.Handle, batch)
		batches := k.n(300_000) / batch
		k.out["sim.sched_cancel_ns"] = k.best(func() float64 {
			var ns time.Duration
			for b := 0; b < max(batches, 1); b++ {
				for i := range hs {
					hs[i] = s.AfterArg(delays[i], nop, nil)
				}
				t0 := now()
				for _, h := range hs {
					s.Cancel(h)
				}
				ns += now().Sub(t0)
				for i := 0; i < batch; i++ {
					s.AfterArg(delays[i], nop, nil)
					s.Step()
				}
			}
			return float64(ns.Nanoseconds()) / float64(max(batches, 1)*batch)
		})
	}

	// Exact timers: Reset cancels the pending expiry and schedules a new
	// one. The clock advances half a deadline between batches so cancelled
	// entries are swept and no timer ever fires.
	{
		s := sim.NewScheduler()
		timers := make([]sim.Timer, 1000)
		for i := range timers {
			timers[i].InitArg(s, nop, nil)
		}
		batches := max(k.n(300_000)/len(timers), 1)
		k.out["sim.timer_reset_ns"] = k.best(func() float64 {
			var ns time.Duration
			for b := 0; b < batches; b++ {
				t0 := now()
				for i := range timers {
					timers[i].Reset(1)
				}
				ns += now().Sub(t0)
				s.RunUntil(s.Now() + 0.5)
			}
			return float64(ns.Nanoseconds()) / float64(batches*len(timers))
		})
	}

	// Coarse timers on a 10 ms wheel: arm them all, then run the clock
	// until every one has fired.
	{
		s := sim.NewScheduler()
		w := s.Wheel(0.010)
		timers := make([]sim.Timer, k.n(10_000))
		for i := range timers {
			timers[i].InitArg(s, nop, nil)
			timers[i].Coarse(w)
		}
		var reset, fire []float64
		for r := 0; r < 5*k.rounds; r++ {
			reset = append(reset, perOp(len(timers), func() {
				for i := range timers {
					timers[i].Reset(0.1 * delays[i%len(delays)])
				}
			}))
			fire = append(fire, perOp(len(timers), func() { s.RunUntil(s.Now() + 0.2) }))
		}
		k.out["sim.wheel_reset_ns"] = fast(reset)
		k.out["sim.wheel_fire_ns"] = fast(fire)
	}

	// Reset of a warm scheduler that has just run a thousand-event scenario.
	{
		s := sim.NewScheduler()
		s.Pin()
		var vals []float64
		for r := 0; r < 50*k.rounds; r++ {
			for i := 0; i < 1000; i++ {
				s.AfterArg(delays[i], nop, nil)
			}
			for i := 0; i < 500; i++ {
				s.Step()
			}
			vals = append(vals, perOp(1, s.Reset))
		}
		k.out["sim.reset_ns"] = fast(vals)
	}
}

// discard frees whatever reaches it.
type discard struct{ nw *netsim.Network }

func (d discard) Recv(p *netsim.Packet) { d.nw.Free(p) }

// twoNodes is the smallest network: a and b joined by one link pair.
func twoNodes(s *sim.Scheduler, bw, delay float64, limit int) (*netsim.Network, *netsim.Node, *netsim.Node) {
	nw := netsim.New(s)
	a, b := nw.NewNode(), nw.NewNode()
	nw.Connect(a, b, bw, delay, func() netsim.Queue { return netsim.NewDropTail(limit) })
	nw.BuildRoutes()
	return nw, a, b
}

// zooImpairments are the probabilities zoo-lossy puts on its middle
// bottleneck, reused wherever a kernel needs an impaired link.
var zooImpairments = netsim.Impairments{Reorder: 0.01, ReorderDelay: 0.005, Duplicate: 0.005, Corrupt: 0.002}

func (k *kernelRun) netsim() {
	// One packet at a time across an idle link: Send, then every event it
	// causes (one delivery untapped, serialization-done plus delivery
	// tapped). Inclusive of the scheduler.
	hop := func(name string, prepare func(s *sim.Scheduler, l *netsim.Link)) {
		s := sim.NewScheduler()
		nw, a, b := twoNodes(s, 1e9, 0.001, 100)
		b.Attach(1, discard{nw})
		prepare(s, a.LinkTo(b))
		n := k.n(300_000)
		k.out["netsim.link_hop_ns."+name] = k.best(func() float64 {
			return perOp(n, func() {
				for i := 0; i < n; i++ {
					p := nw.NewPacket()
					p.Size, p.Src, p.Dst, p.DstPort = 1000, a.ID, b.ID, 1
					a.Send(p)
					for s.Step() {
					}
				}
			})
		})
	}
	hop("untapped", func(*sim.Scheduler, *netsim.Link) {})
	hop("tapped", func(_ *sim.Scheduler, l *netsim.Link) {
		l.AddTap(func(netsim.TapEvent, float64, *netsim.Packet) {})
	})
	hop("impaired", func(s *sim.Scheduler, l *netsim.Link) { l.SetImpairments(zooImpairments, s.NewRand(1)) })

	// Queue disciplines alone: one enqueue and one dequeue at a standing
	// backlog of 60 packets, which for RED sits inside the 25..125 marking
	// band. An early drop skips that iteration's dequeue so the backlog
	// holds.
	queue := func(name string, q netsim.Queue) {
		pkts := make([]netsim.Packet, 256)
		for i := range pkts {
			pkts[i].Size = 1000
		}
		for i := 0; i < 60; i++ {
			q.Enqueue(&pkts[i])
		}
		n := k.n(1_000_000)
		k.out[name] = k.best(func() float64 {
			return perOp(n, func() {
				for i := 0; i < n; i++ {
					if q.Enqueue(&pkts[i%len(pkts)]) {
						q.Dequeue()
					}
				}
			})
		})
	}
	queue("netsim.droptail_ns", netsim.NewDropTail(200))
	clock := 0.0
	queue("netsim.red_ns", netsim.NewRED(netsim.DefaultRED(200), func() float64 { clock += 1e-4; return clock }, sim.NewRand(1)))

	// Forwarding: host, three routers, host; four untapped hops a packet.
	{
		s := sim.NewScheduler()
		t := netsim.NewTopology(s, nil)
		spec := netsim.LinkSpec{Bandwidth: 1e9, Delay: 0.001, QueueLimit: 100}
		names := []string{"h0", "r0", "r1", "r2", "h1"}
		for i := 0; i+1 < len(names); i++ {
			t.Link(names[i], names[i+1], spec)
		}
		nw := t.Build()
		src, dst := t.Lookup("h0"), t.Lookup("h1")
		dst.Attach(1, discard{nw})
		n := k.n(100_000)
		hops := len(names) - 1
		k.out["netsim.route_hop_ns"] = k.best(func() float64 {
			return perOp(n*hops, func() {
				for i := 0; i < n; i++ {
					p := nw.NewPacket()
					p.Size, p.Src, p.Dst, p.DstPort = 1000, src.ID, dst.ID, 1
					src.Send(p)
					for s.Step() {
					}
				}
			})
		})
	}

	// The per-flow monitor's tap, flows visited in a scattered order.
	for _, f := range []struct {
		label string
		flows int
	}{{"1k", 1_000}, {"100k", 100_000}} {
		flows := k.n(f.flows)
		m := netsim.NewFlowMonitor(1, 0)
		m.Register(flows, 4)
		tap := m.Tap()
		r := rand.New(rand.NewSource(1))
		order := make([]int, 1<<16)
		for i := range order {
			order[i] = r.Intn(flows)
		}
		p := netsim.Packet{Size: 1000}
		n := k.n(2_000_000)
		k.out["netsim.flowmon_observe_ns."+f.label] = k.best(func() float64 {
			return perOp(n, func() {
				for i := 0; i < n; i++ {
					p.Flow = order[i%len(order)]
					tap(netsim.TapDepart, 1.5, &p)
				}
			})
		})
	}

	{
		nw, _, _ := twoNodes(sim.NewScheduler(), 1e9, 0.001, 100)
		pool := nw.Pool()
		n := k.n(3_000_000)
		k.out["netsim.pool_ns"] = k.best(func() float64 {
			return perOp(n, func() {
				for i := 0; i < n; i++ {
					pool.Put(pool.Get())
				}
			})
		})
	}

	{
		s := sim.NewScheduler()
		d := netsim.NewDumbbell(s, netsim.DumbbellConfig{
			Hosts: k.n(100), BottleneckBW: 8e6, BottleneckDly: 0.025, QueueLimit: 100,
		}, s.NewRand(1))
		n := max(k.n(100)/2, 1)
		k.out["netsim.build_routes_ns"] = k.best(func() float64 {
			return perOp(n, func() {
				for i := 0; i < n; i++ {
					d.Net.BuildRoutes()
				}
			})
		})
	}
}

func (k *kernelRun) core() {
	n := k.n(1_000_000)
	k.out["core.pftk_ns"] = k.best(func() float64 {
		var acc float64
		v := perOp(n, func() {
			for i := 0; i < n; i++ {
				acc += core.PFTK(1000, 0.1, 0.4, 0.001+float64(i&1023)*1e-4)
			}
		})
		sink += uint64(acc)
		return v
	})

	k.out["core.losshistory_ns"] = k.best(func() float64 {
		h := core.NewLossHistory(core.DefaultLossHistory())
		var acc float64
		v := perOp(n, func() {
			for i := 0; i < n; i++ {
				h.OnLossEvent(float64(50 + i&63))
				h.SetOpen(float64(i & 127))
				acc += h.LossEventRate()
			}
		})
		sink += uint64(acc)
		return v
	})

	k.out["core.receiver_ondata_ns"] = k.best(func() float64 {
		r := core.NewReceiver(core.ReceiverConfig{PacketSize: 1000})
		return perOp(n, func() {
			for i := 0; i < n; i++ {
				t := float64(i) * 1e-3
				r.OnData(t+0.05, core.DataPacket{Seq: int64(i), Size: 1000, SendTime: t, SenderRTT: 0.1})
			}
		})
	})

	// Every arrival skips one sequence number and comes more than a round
	// trip after the last, so each opens a new loss event.
	k.out["core.receiver_loss_ns"] = k.best(func() float64 {
		r := core.NewReceiver(core.ReceiverConfig{PacketSize: 1000})
		return perOp(n, func() {
			for i := 0; i < n; i++ {
				t := float64(i) * 0.5
				r.OnData(t+0.05, core.DataPacket{Seq: int64(2 * i), Size: 1000, SendTime: t, SenderRTT: 0.1})
			}
		})
	})

	k.out["core.sender_onfeedback_ns"] = k.best(func() float64 {
		s := core.NewSender(core.DefaultSenderConfig())
		var acc float64
		v := perOp(n, func() {
			for i := 0; i < n; i++ {
				acc += s.OnFeedback(core.Feedback{P: 0.01 + float64(i&15)*1e-3, XRecv: 1e5, RTTSample: 0.1})
			}
		})
		sink += uint64(acc)
		return v
	})
}

// agents covers the two transports bound to the simulator: the cost of
// one flow's packet on a clean two-node link (inclusive of the scheduler,
// one data hop and the returning ACK or feedback hop) and the cost and
// size of constructing a flow.
func (k *kernelRun) agents() {
	simSeconds := max(200.0/float64(k.div), 2)

	k.out["tfrcsim.flow_ns_per_pkt"] = k.best(func() float64 {
		s := sim.NewScheduler()
		nw, a, b := twoNodes(s, 8e6, 0.010, 100)
		snd, _ := tfrcsim.Pair(nw, a, b, 1, 1, 0, tfrcsim.DefaultConfig())
		snd.Start(0)
		t0 := now()
		s.RunUntil(simSeconds)
		return float64(now().Sub(t0).Nanoseconds()) / float64(max(snd.Sent, 1))
	})

	// A 20-packet window on a link too fast to queue: the window, not the
	// link, limits the flow, so no packet is lost.
	tcpFlow := func(name cc.Name, imp *netsim.Impairments) float64 {
		return k.best(func() float64 {
			s := sim.NewScheduler()
			nw, a, b := twoNodes(s, 100e6, 0.005, 100)
			if imp != nil {
				a.LinkTo(b).SetImpairments(*imp, s.NewRand(1))
			}
			tcp.NewSink(nw, b, 1, 0, 40)
			snd := tcp.NewSender(nw, a, b.ID, 1, 1, 0, tcp.Config{
				Variant: tcp.Sack, CC: cc.Config{Name: name}, MaxWindow: 20,
			})
			snd.Start(0)
			t0 := now()
			s.RunUntil(simSeconds / 2)
			return float64(now().Sub(t0).Nanoseconds()) / float64(max(snd.Sent, 1))
		})
	}
	for _, name := range zooControllers {
		k.out["tcp.flow_ns_per_pkt."+string(name)] = tcpFlow(name, nil)
	}
	k.out["tcp.recovery_ns_per_pkt"] = tcpFlow("reno", &netsim.Impairments{Corrupt: 0.01})

	// Construction: flows built on one fresh scheduler, so the arenas are
	// cold, as they are for a many-flow cell. bytes_per_flow is the
	// reachable heap the flows added.
	flows := k.n(10_000)
	build := func(prefix string, pair func(nw *netsim.Network, a, b *netsim.Node, i int)) {
		var ns, bytes []float64
		for r := 0; r < k.rounds; r++ {
			s := sim.NewScheduler()
			nw, a, b := twoNodes(s, 1e9, 0.001, 100)
			before := liveHeap()
			ns = append(ns, perOp(flows, func() {
				for i := 0; i < flows; i++ {
					pair(nw, a, b, i)
				}
			}))
			bytes = append(bytes, float64(liveHeap()-before)/float64(flows))
			// The network (and through its ports every agent) stays
			// reachable until here.
			sink += uint64(len(nw.Nodes()))
		}
		k.out[prefix+".new_ns"] = fast(ns)
		k.out[prefix+".bytes_per_flow"] = median(bytes)
	}
	// Configured as manyflows10k configures its flows: a jitter generator
	// each, feedback timers on the coarse wheel.
	many := tfrcsim.DefaultConfig()
	many.PacingJitter, many.JitterSeed, many.CoarseTimerTick = 0.2, 1, 0.010
	build("tfrcsim", func(nw *netsim.Network, a, b *netsim.Node, i int) {
		tfrcsim.Pair(nw, a, b, i+1, i+1, i, many)
	})
	build("tcp", func(nw *netsim.Network, a, b *netsim.Node, i int) {
		tcp.NewSink(nw, b, i+1, i, 40)
		tcp.NewSender(nw, a, b.ID, i+1, i+1, i, tcp.Config{Variant: tcp.Sack})
	})
}

// cc times the pair of hooks the TCP sender calls on every new ACK — the
// RTT sample, then the ACK — through the Controller interface, with a
// loss every 1024 ACKs so the window stays in congestion avoidance.
func (k *kernelRun) cc() {
	n := k.n(3_000_000)
	for _, name := range zooControllers {
		s := sim.NewScheduler()
		ctrl := cc.New(s, cc.Config{Name: name}, 10000)
		st := cc.State{Cwnd: 10, Ssthresh: 10000}
		k.out["cc.onack_ns."+string(name)] = k.best(func() float64 {
			return perOp(n, func() {
				for i := 0; i < n; i++ {
					ctrl.OnRTTSample(&st, 0.1+float64(i&7)*1e-3)
					ctrl.OnAck(&st, 1)
					if i&1023 == 0 {
						ctrl.OnLoss(&st, int64(st.Cwnd))
					}
				}
			})
		})
		sink += uint64(st.Cwnd)
	}
}

func (k *kernelRun) traffic() {
	simSeconds := max(1000.0/float64(k.div), 5)
	k.out["traffic.onoff_ns_per_pkt"] = k.best(func() float64 {
		s := sim.NewScheduler()
		nw, a, b := twoNodes(s, 100e6, 0.005, 100)
		traffic.NewSink(nw, b, 1)
		cfg := traffic.DefaultOnOff()
		cfg.Rate = 5e6
		src := traffic.NewOnOff(nw, a, b.ID, 1, 0, cfg, s.NewRand(1))
		src.Start(0)
		t0 := now()
		s.RunUntil(simSeconds)
		return float64(now().Sub(t0).Nanoseconds()) / float64(max(src.Sent, 1))
	})
	k.out["traffic.cbr_ns_per_pkt"] = k.best(func() float64 {
		s := sim.NewScheduler()
		nw, a, b := twoNodes(s, 100e6, 0.005, 100)
		traffic.NewSink(nw, b, 1)
		src := traffic.NewCBR(nw, a, b.ID, 1, 0, 1000, 8e6)
		src.Start(0)
		t0 := now()
		s.RunUntil(simSeconds / 2)
		return float64(now().Sub(t0).Nanoseconds()) / float64(max(src.Sent, 1))
	})
	// A session is a whole short transfer: sender and sink drawn from the
	// arena, about twenty packets and their ACKs, then recycled.
	k.out["traffic.mice_ns_per_session"] = k.best(func() float64 {
		s := sim.NewScheduler()
		nw, a, b := twoNodes(s, 100e6, 0.005, 100)
		m := traffic.NewMice(nw, a, b, 0, traffic.MiceConfig{
			MeanInterarrival: 0.02, MeanSize: 20, Variant: tcp.Sack,
		}, s.NewRand(1))
		m.Start(0)
		t0 := now()
		s.RunUntil(simSeconds / 10)
		return float64(now().Sub(t0).Nanoseconds()) / float64(max(m.Sessions, 1))
	})
}

// faults compiles a hundred-fault schedule onto a fresh dumbbell.
func (k *kernelRun) faults() {
	fs := faults.Schedule{Seed: 1}
	kinds := []faults.Fault{
		{Kind: faults.LinkDown}, {Kind: faults.LinkUp},
		{Kind: faults.DelaySpike, Delay: 0.05},
		{Kind: faults.BandwidthCollapse, Bandwidth: 1e6},
		{Kind: faults.Impair, Reorder: 0.01, ReorderDelay: 0.005},
	}
	for i := 0; i < 100; i++ {
		f := kinds[i%len(kinds)]
		f.At, f.Link = float64(i), "rl->rr"
		fs.Faults = append(fs.Faults, f)
	}
	s := sim.NewScheduler()
	s.Pin()
	var vals []float64
	for r := 0; r < 20*k.rounds; r++ {
		s.Reset()
		d := netsim.NewDumbbell(s, netsim.DumbbellConfig{
			Hosts: 8, BottleneckBW: 8e6, BottleneckDly: 0.025, QueueLimit: 100,
		}, s.NewRand(1))
		vals = append(vals, perOp(1, func() { fs.Apply(d.Topo) }))
	}
	k.out["faults.apply_ns"] = fast(vals)
}

func (k *kernelRun) sweepShardWire() {
	cells := k.n(2_000_000)
	k.out["sweep.map_ns_per_cell"] = k.best(func() float64 {
		return perOp(cells, func() {
			sweep.MapCtx(sweepWorkers, cells,
				func() int { return 0 }, nil,
				func(_ int, i int) int8 { return int8(i) })
		})
	})

	p := exp.PaperFig06()
	params, err := json.Marshal(&p)
	if err != nil {
		panic(err)
	}
	n := k.n(30_000)
	k.out["shard.params_hash_ns"] = k.best(func() float64 {
		return perOp(n, func() {
			for i := 0; i < n; i++ {
				if _, err := shard.ParamsHash("fig6", params); err != nil {
					panic(err)
				}
			}
		})
	})

	// The wire transport is paced by the wall clock, so it has no
	// throughput to measure; only its codec is timed.
	n = k.n(3_000_000)
	payload := make([]byte, 1000)
	hdr := wire.DataHeader{Seq: 1, SendTime: time.UnixMicro(1_700_000_000_000_000), SenderRTT: 100 * time.Millisecond}
	buf := make([]byte, 0, 2048)
	k.out["wire.append_data_ns"] = k.best(func() float64 {
		return perOp(n, func() {
			for i := 0; i < n; i++ {
				hdr.Seq = uint32(i)
				buf = wire.AppendData(buf, hdr, payload)
			}
		})
	})
	k.out["wire.parse_data_ns"] = k.best(func() float64 {
		return perOp(n, func() {
			for i := 0; i < n; i++ {
				h, _, err := wire.ParseData(buf)
				if err != nil {
					panic(err)
				}
				sink += uint64(h.Seq)
			}
		})
	})
	fb := wire.FeedbackPacket{LossEventRate: 0.01, RecvRate: 1e5, EchoSeq: 1, EchoSendTime: hdr.SendTime, EchoDelay: time.Millisecond}
	k.out["wire.append_feedback_ns"] = k.best(func() float64 {
		return perOp(n, func() {
			for i := 0; i < n; i++ {
				fb.EchoSeq = uint32(i)
				buf = wire.AppendFeedback(buf, fb)
			}
		})
	})
	k.out["wire.parse_feedback_ns"] = k.best(func() float64 {
		return perOp(n, func() {
			for i := 0; i < n; i++ {
				f, err := wire.ParseFeedback(buf)
				if err != nil {
					panic(err)
				}
				sink += uint64(f.EchoSeq)
			}
		})
	})
}
