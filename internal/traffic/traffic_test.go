package traffic

import (
	"testing"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/tcp"
)

func twoNodes(t *testing.T, bw float64) (*sim.Scheduler, *netsim.Network, *netsim.Node, *netsim.Node) {
	t.Helper()
	sched := sim.NewScheduler()
	nw := netsim.New(sched)
	a, b := nw.NewNode(), nw.NewNode()
	nw.Connect(a, b, bw, 0.005, func() netsim.Queue { return netsim.NewDropTail(1000) })
	nw.BuildRoutes()
	return sched, nw, a, b
}

func TestCBRRate(t *testing.T) {
	sched, nw, a, b := twoNodes(t, 10e6)
	sink := NewSink(nw, b, 1)
	src := NewCBR(nw, a, b.ID, 1, 0, 1000, 800e3) // 100 pkt/s
	src.Start(0)
	sched.RunUntil(10)
	// 100 pkt/s for 10 s = 1000 packets (±1 boundary).
	if sink.Received < 999 || sink.Received > 1001 {
		t.Fatalf("received %d, want ≈ 1000", sink.Received)
	}
}

func TestOnOffLongRunAverage(t *testing.T) {
	// Mean rate over a long run ≈ Rate·MeanOn/(MeanOn+MeanOff) = 1/3 of
	// 500 kb/s. Heavy tails converge slowly: accept ±40%.
	sched, nw, a, b := twoNodes(t, 10e6)
	sink := NewSink(nw, b, 1)
	src := NewOnOff(nw, a, b.ID, 1, 0, DefaultOnOff(), sim.NewRand(3))
	src.Start(0)
	const dur = 2000.0
	sched.RunUntil(dur)
	gotRate := float64(sink.Bytes) * 8 / dur
	want := 500e3 / 3
	if gotRate < want*0.6 || gotRate > want*1.4 {
		t.Fatalf("mean rate %v b/s, want ≈ %v", gotRate, want)
	}
}

func TestOnOffBurstsAtConfiguredRate(t *testing.T) {
	// Within an ON period packets are spaced at exactly size·8/rate.
	sched, nw, a, b := twoNodes(t, 100e6)
	var times []float64
	b.Attach(1, agentFunc(func(p *netsim.Packet) {
		times = append(times, sched.Now())
		nw.Free(p)
	}))
	src := NewOnOff(nw, a, b.ID, 1, 0, DefaultOnOff(), sim.NewRand(1))
	src.Start(0)
	sched.RunUntil(30)
	if len(times) < 10 {
		t.Fatalf("only %d packets", len(times))
	}
	wantGap := 1000.0 * 8 / 500e3 // 16 ms
	inBurst := 0
	for i := 1; i < len(times); i++ {
		gap := times[i] - times[i-1]
		if gap < wantGap*1.01 && gap > wantGap*0.99 {
			inBurst++
		}
	}
	if inBurst < len(times)/2 {
		t.Fatalf("only %d of %d gaps at the ON rate", inBurst, len(times))
	}
}

type agentFunc func(p *netsim.Packet)

func (f agentFunc) Recv(p *netsim.Packet) { f(p) }

func TestMiceGenerateSessions(t *testing.T) {
	sched, nw, a, b := twoNodes(t, 10e6)
	mice := NewMice(nw, a, b, 7, MiceConfig{
		MeanInterarrival: 0.2,
		MeanSize:         10,
		Variant:          tcp.Sack,
		BasePort:         1000,
	}, sim.NewRand(5))
	mon := netsim.NewFlowMonitor(1, 0)
	a.LinkTo(b).AddTap(mon.Tap())
	mice.Start(0)
	sched.RunUntil(20)
	if mice.Sessions < 50 {
		t.Fatalf("only %d sessions in 20 s at 5/s", mice.Sessions)
	}
	// Mean load ≈ sessions·meanSize·pktSize bytes.
	got := mon.TotalBytes(7)
	if got < 100000 {
		t.Fatalf("mice moved only %v bytes", got)
	}
}

// miceWatch follows a generator through its session events: how many
// transfers are unfinished, the most there ever were, and every sender
// struct a session was ever started on. It fails the test if two port
// slots ever hold the same sender — what a struct released twice, and
// so issued twice, would look like.
type miceWatch struct {
	t                      *testing.T
	m                      *Mice
	live, peak             int
	starts, dones, evicted int
	issued                 map[*tcp.Sender]bool
}

func watchMice(t *testing.T, sched *sim.Scheduler, build func() *Mice) *miceWatch {
	w := &miceWatch{t: t, issued: map[*tcp.Sender]bool{}}
	ObserveSessions(sched, w.event)
	w.m = build()
	return w
}

func (w *miceWatch) event(e SessionEvent) {
	switch e.Kind {
	case SessionDone:
		w.dones++
		w.live--
	case SessionEvicted:
		w.evicted++
		w.live--
	case SessionStart:
		w.starts++
		w.live++
		w.peak = max(w.peak, w.live)
		w.issued[w.m.slots[e.Slot].snd] = true
		held := map[*tcp.Sender]int{}
		for k, sl := range w.m.slots {
			if sl.snd == nil {
				continue
			}
			if other, dup := held[sl.snd]; dup {
				w.t.Fatalf("session %d: port slots %d and %d hold the same sender", w.starts, other, k)
			}
			held[sl.snd] = k
		}
		if len(held) != w.live {
			w.t.Fatalf("session %d: %d senders held for %d unfinished transfers", w.starts, len(held), w.live)
		}
	}
}

func TestMiceResidentSendersFollowLiveSessions(t *testing.T) {
	cfg := MiceConfig{MeanInterarrival: 0.02, MeanSize: 20, Variant: tcp.Sack}

	t.Run("clean path", func(t *testing.T) {
		sched, nw, a, b := twoNodes(t, 10e6)
		w := watchMice(t, sched, func() *Mice { return NewMice(nw, a, b, 7, cfg, sim.NewRand(5)) })
		w.m.Start(0)
		for w.m.Sessions < 500 {
			sched.RunUntil(sched.Now() + 1)
		}
		if w.evicted != 0 || w.dones != w.starts-w.live {
			t.Fatalf("%d sessions: %d done, %d evicted: the path is not clean", w.starts, w.dones, w.evicted)
		}
		// 500 sessions went through 64 port slots, eight times round;
		// the arena was asked for as many senders as were ever alive at
		// once, the one being started included.
		if len(w.issued) > w.peak+1 {
			t.Errorf("%d sender structs issued for a peak of %d unfinished transfers", len(w.issued), w.peak)
		}
		t.Logf("%d sessions, peak %d unfinished, %d sender structs", w.starts, w.peak, len(w.issued))
	})

	t.Run("straggler", func(t *testing.T) {
		// 20 kb/s carries a packet in 0.4 s and sessions start 500 a
		// second: few transfers finish before their slot, one of
		// MiceSlots, comes round again.
		sched, nw, a, b := twoNodes(t, 20e3)
		slow := cfg
		slow.MeanInterarrival = 0.002
		w := watchMice(t, sched, func() *Mice { return NewMice(nw, a, b, 7, slow, sim.NewRand(5)) })
		w.m.Start(0)
		sched.RunUntil(2)
		if w.starts < 50 || w.evicted != w.starts-w.dones-w.live {
			t.Fatalf("%d sessions, %d done, %d evicted, %d alive: the books do not balance", w.starts, w.dones, w.evicted, w.live)
		}
		if w.evicted < w.starts/2 {
			t.Fatalf("only %d of %d sessions were evicted: the path is not slow enough", w.evicted, w.starts)
		}
		// An evicted sender goes back exactly once and is the very struct
		// the session that evicted it starts on.
		if len(w.issued) > MiceSlots+1 {
			t.Errorf("%d sender structs issued through %d port slots", len(w.issued), MiceSlots)
		}
		t.Logf("%d sessions, %d evicted, %d sender structs", w.starts, w.evicted, len(w.issued))
	})

	t.Run("steady state allocates nothing", func(t *testing.T) {
		sched, nw, a, b := twoNodes(t, 10e6)
		m := NewMice(nw, a, b, 7, cfg, sim.NewRand(5))
		m.Start(0)
		for m.Sessions < 2*64 { // every port slot used, and the pools warm
			sched.RunUntil(sched.Now() + 1)
		}
		before := m.Sessions
		perSecond := testing.AllocsPerRun(5, func() { sched.RunUntil(sched.Now() + 1) })
		if sessions := m.Sessions - before; sessions < 200 {
			t.Fatalf("only %d sessions measured", sessions)
		}
		if perSecond != 0 {
			t.Errorf("a second of sessions (about 50) allocated %v times once every port slot had been used, want 0", perSecond)
		}
	})
}

func TestConfigValidation(t *testing.T) {
	sched, nw, a, b := twoNodes(t, 1e6)
	_ = sched
	for name, fn := range map[string]func(){
		"onoff": func() {
			NewOnOff(nw, a, b.ID, 1, 0, OnOffConfig{}, sim.NewRand(1))
		},
		"cbr": func() { NewCBR(nw, a, b.ID, 1, 0, 1000, 0) },
		"mice": func() {
			NewMice(nw, a, b, 0, MiceConfig{}, sim.NewRand(1))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: bad config did not panic", name)
				}
			}()
			fn()
		}()
	}
}
