package tfrcsim

import (
	"math"
	"testing"

	"tfrc/internal/core"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/tcp"
)

func pipeRig(t *testing.T, bw, delay float64, qlen int, cfg Config) (*sim.Scheduler, *netsim.Network, *Sender, *Receiver, *netsim.Link) {
	t.Helper()
	sched := sim.NewScheduler()
	nw := netsim.New(sched)
	a, b := nw.NewNode(), nw.NewNode()
	nw.Connect(a, b, bw, delay, func() netsim.Queue { return netsim.NewDropTail(qlen) })
	nw.BuildRoutes()
	snd, rcv := Pair(nw, a, b, 1, 2, 0, cfg)
	return sched, nw, snd, rcv, a.LinkTo(b)
}

func TestTFRCFillsCleanPipe(t *testing.T) {
	// 2 Mb/s, 20 ms: with a generous queue there is almost no loss, so
	// TFRC should settle near link speed.
	sched, _, snd, _, lnk := pipeRig(t, 2e6, 0.020, 200, DefaultConfig())
	mon := netsim.NewFlowMonitor(1, 20)
	lnk.AddTap(mon.Tap())
	snd.Start(0)
	sched.RunUntil(60)
	if u := mon.TotalBytes(0) * 8 / (2e6 * 40); u < 0.80 {
		t.Fatalf("utilization = %v, want ≥ 0.80", u)
	}
	if snd.Feedbacks == 0 {
		t.Fatal("no feedback ever arrived")
	}
}

func TestTFRCSlowStartDoublesAndSeeds(t *testing.T) {
	sched, _, snd, rcv, _ := pipeRig(t, 10e6, 0.050, 30, DefaultConfig())
	snd.Start(0)
	// Track rate while still loss-free.
	var rates []float64
	probe := func() { rates = append(rates, snd.Rate()) }
	for i := 1; i <= 8; i++ {
		sched.At(float64(i)*0.11, probe)
	}
	sched.RunUntil(1.0)
	grewFast := false
	for i := 1; i < len(rates); i++ {
		if rates[i] > 1.8*rates[i-1] {
			grewFast = true
		}
	}
	if !grewFast {
		t.Fatalf("no doubling observed in slow start: %v", rates)
	}
	sched.RunUntil(30)
	// By now the queue (30 pkts ≪ BDP at 10 Mb/s) has overflowed: slow
	// start must have ended with a seeded loss history.
	if snd.Core().InSlowStart() {
		t.Fatal("still in slow start after 30 s on a lossy pipe")
	}
	if rcv.P() <= 0 {
		t.Fatal("receiver never recorded a loss")
	}
}

func TestTFRCRateMatchesEquationUnderPeriodicLoss(t *testing.T) {
	// Periodic loss of every 100th packet, fixed RTT: the long-run rate
	// should approach the control equation at p = 0.01.
	sched := sim.NewScheduler()
	nw := netsim.New(sched)
	a, b := nw.NewNode(), nw.NewNode()
	nw.Connect(a, b, 100e6, 0.050, func() netsim.Queue { return netsim.NewDropTail(10000) })
	nw.BuildRoutes()
	cfg := DefaultConfig()
	// The receiver listens on a side port; the sender addresses port 1,
	// where a filter drops every 100th data packet before forwarding.
	rcv := NewReceiver(nw, b, 5, 0, cfg)
	snd := NewSender(nw, a, b.ID, 1, 2, 0, cfg)
	b.Attach(1, &dropEveryN{nw: nw, next: rcv, n: 100})
	snd.Start(0)
	sched.RunUntil(120)
	rtt := snd.Core().RTT().SRTT()
	want := core.PFTK(1000, rtt, 4*rtt, 0.01)
	got := snd.Rate()
	if got < want/2 || got > want*2 {
		t.Fatalf("rate %v not within 2× of equation %v (rtt %v)", got, want, rtt)
	}
}

// dropEveryN drops every n-th data packet.
type dropEveryN struct {
	nw    *netsim.Network
	next  netsim.Agent
	n     int
	count int
}

func (d *dropEveryN) Recv(p *netsim.Packet) {
	if p.Kind == netsim.KindData {
		d.count++
		if d.count%d.n == 0 {
			d.nw.Free(p)
			return
		}
	}
	d.next.Recv(p)
}

func TestTFRCSmootherThanTCP(t *testing.T) {
	// The paper's headline claim (Fig 8, Fig 10): under identical
	// conditions TFRC's sending rate is smoother than TCP's. Run each
	// alone on the same lossy bottleneck and compare the CoV of 0.15 s
	// bins measured at the sender's access link (the bottleneck queue
	// would smooth departures and hide the sawtooth).
	run := func(tfrcFlow bool) []float64 {
		sched := sim.NewScheduler()
		d := netsim.NewDumbbell(sched, netsim.DumbbellConfig{
			Hosts:         1,
			BottleneckBW:  1.5e6,
			BottleneckDly: 0.020,
			QueueLimit:    15,
		}, sim.NewRand(5))
		mon := netsim.NewFlowMonitor(0.15, 30)
		d.Left[0].LinkTo(d.RouterL).AddTap(mon.Tap())
		if tfrcFlow {
			snd, _ := Pair(d.Net, d.Left[0], d.Right[0], 1, 2, 0, DefaultConfig())
			snd.Start(0)
		} else {
			tcp.NewSink(d.Net, d.Right[0], 1, 0, 40)
			s := tcp.NewSender(d.Net, d.Left[0], d.Right[0].ID, 1, 2, 0, tcp.Config{Variant: tcp.Sack})
			s.Start(0)
		}
		sched.RunUntil(120)
		return mon.Series(0, 600)
	}
	cov := func(xs []float64) float64 {
		var sum, n float64
		for _, x := range xs {
			sum += x
			n++
		}
		mean := sum / n
		var sq float64
		for _, x := range xs {
			sq += (x - mean) * (x - mean)
		}
		return math.Sqrt(sq/n) / mean
	}
	covTFRC, covTCP := cov(run(true)), cov(run(false))
	if covTFRC >= covTCP {
		t.Fatalf("TFRC CoV %v not below TCP CoV %v", covTFRC, covTCP)
	}
}

func TestTFRCStopsWithoutFeedbackPath(t *testing.T) {
	// Sever the reverse path: the no-feedback timer must halve the rate
	// repeatedly toward the floor (§3: "ultimately stop sending").
	sched := sim.NewScheduler()
	nw := netsim.New(sched)
	a, b := nw.NewNode(), nw.NewNode()
	nw.Connect(a, b, 1e6, 0.010, func() netsim.Queue { return netsim.NewDropTail(100) })
	nw.BuildRoutes()
	// No receiver attached at all: data vanishes at b (unbound port).
	snd := NewSender(nw, a, b.ID, 1, 2, 0, DefaultConfig())
	snd.Start(0)
	sched.RunUntil(120)
	if snd.NoFbCuts == 0 {
		t.Fatal("no-feedback timer never fired")
	}
	if got, floor := snd.Rate(), 1000.0/64; got > floor+1 {
		t.Fatalf("rate %v did not decay to floor %v", got, floor)
	}
}

func TestTFRCFairWithTCPOnDumbbell(t *testing.T) {
	// One TFRC vs one SACK TCP on a 3 Mb/s bottleneck: normalized
	// throughputs within a factor ~2.5 of each other (the paper's
	// Figure 6 shows TFRC and TCP within 2× across most conditions).
	sched := sim.NewScheduler()
	d := netsim.NewDumbbell(sched, netsim.DumbbellConfig{
		Hosts:         2,
		BottleneckBW:  3e6,
		BottleneckDly: 0.025,
		QueueLimit:    38, // ≈ BDP
	}, sim.NewRand(2))
	mon := netsim.NewFlowMonitor(1.0, 30)
	d.Forward.AddTap(mon.Tap())

	tsnd, _ := Pair(d.Net, d.Left[0], d.Right[0], 1, 2, 0, DefaultConfig())
	tsnd.Start(0.1)
	tcp.NewSink(d.Net, d.Right[1], 1, 1, 40)
	tcpSnd := tcp.NewSender(d.Net, d.Left[1], d.Right[1].ID, 1, 2, 1, tcp.Config{Variant: tcp.Sack})
	tcpSnd.Start(0.5)

	sched.RunUntil(150)
	bt, bc := mon.TotalBytes(0), mon.TotalBytes(1)
	if bt == 0 || bc == 0 {
		t.Fatalf("starved flow: tfrc=%v tcp=%v", bt, bc)
	}
	ratio := bt / bc
	if ratio < 1.0/2.5 || ratio > 2.5 {
		t.Fatalf("TFRC/TCP byte ratio %v outside [0.4, 2.5]", ratio)
	}
}

func TestFeedbackOncePerRTT(t *testing.T) {
	sched, _, snd, rcv, _ := pipeRig(t, 2e6, 0.040, 100, DefaultConfig())
	snd.Start(0)
	sched.RunUntil(30)
	// RTT ≈ 84 ms ⇒ about 12 reports/sec; allow [6, 40] per second to
	// account for loss-expedited reports.
	perSec := float64(rcv.Reports) / 30
	if perSec < 6 || perSec > 40 {
		t.Fatalf("feedback rate %v per second, want ≈ 1/RTT", perSec)
	}
}

func TestCoarseTimersStillConverge(t *testing.T) {
	// With feedback/no-feedback timers on a 10 ms wheel the protocol must
	// still fill a clean pipe: coarse ticks delay feedback by at most one
	// tick, which the RTT-scaled feedback interval tolerates.
	cfg := DefaultConfig()
	cfg.CoarseTimerTick = 0.010
	sched, _, snd, rcv, lnk := pipeRig(t, 2e6, 0.020, 200, cfg)
	mon := netsim.NewFlowMonitor(1, 20)
	lnk.AddTap(mon.Tap())
	snd.Start(0)
	sched.RunUntil(60)
	if u := mon.TotalBytes(0) * 8 / (2e6 * 40); u < 0.80 {
		t.Fatalf("utilization with coarse timers = %v, want ≥ 0.80", u)
	}
	if snd.Feedbacks == 0 || rcv.Reports == 0 {
		t.Fatalf("feedback loop dead: %d feedbacks, %d reports", snd.Feedbacks, rcv.Reports)
	}
	// Both wheel-backed timers share one wheel event; the rest of the
	// standing population is the pacing timer plus in-flight link
	// events, all bounded regardless of how many coarse timers exist.
	if n := sched.Len(); n > 16 {
		t.Fatalf("scheduler holds %d events at end, want ≤ 16", n)
	}
}
