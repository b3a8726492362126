package wire

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"tfrc/internal/faults"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
)

// probeClock wraps a Clock so a test can see which of an endpoint's
// timers are armed.
type probeClock struct {
	Clock
	timers []*probeTimer
}

type probeTimer struct {
	Timer
	armed bool
	d     time.Duration // of the latest Reset
}

func (c *probeClock) NewTimer(f func()) Timer {
	pt := new(probeTimer)
	pt.Timer = c.Clock.NewTimer(func() { pt.armed = false; f() })
	c.timers = append(c.timers, pt)
	return pt
}

func (t *probeTimer) Reset(d time.Duration) { t.armed, t.d = true, d; t.Timer.Reset(d) }
func (t *probeTimer) Stop()                 { t.armed = false; t.Timer.Stop() }

// TestReportTimerFollowsSubMillisecondRTT stamps a sender RTT of 300 µs
// on the data: the receiver reports once per sender RTT, floored at
// 0.1 ms as in the simulator's agents, so its report timer runs 300 µs
// ahead, not a millisecond.
func TestReportTimerFollowsSubMillisecondRTT(t *testing.T) {
	sched, topo := simPath(8e6, 0.0001, 20)
	_, rcv, _, rp := simPair(topo, "a", "b", 1, nil, Config{})
	rck := &probeClock{Clock: simClock{sched}}
	rcv.attach(rck, rp.send)
	fbT := rck.timers[0]
	const rtt = 300 * time.Microsecond
	for seq := uint32(0); seq < 3; seq++ {
		rcv.onDatagram(AppendData(nil, DataHeader{Seq: seq, SendTime: simEpoch, SenderRTT: rtt}, make([]byte, 100)))
		if !fbT.armed || fbT.d != rtt {
			t.Fatalf("after packet %d: report timer armed=%v %v ahead, want %v", seq, fbT.armed, fbT.d, rtt)
		}
	}
}

// steppedClock is the scheduler's clock read the way the OS driver reads
// the wall clock: every reading carries a monotonic reading beside its
// wall-clock one, and once the wall clock has been stepped by step the
// two disagree by it. The codec keeps only the wall-clock reading.
type steppedClock struct {
	simClock
	base time.Time // a time.Now reading, monotonic reading included
	step time.Duration
}

func (c *steppedClock) Now() time.Time {
	t := c.base.Add(dur(c.s.Now()) + c.step)
	// time.Time has no way to step the wall clock alone, so take the step
	// back off the monotonic reading (time.Time's ext field).
	(*struct {
		wall uint64
		ext  int64
		loc  *time.Location
	})(unsafe.Pointer(&t)).ext -= int64(c.step)
	return t
}

// TestRTTSampleSurvivesWallClockStep steps the sender's wall clock an
// hour either way right after attach. The echoed send time is a wall-clock
// reading, so the RTT sample must be taken in the wall clock's frame: in
// the monotonic one a step forward makes every sample negative (each
// report refused before the first) and a step back adds an hour to each.
func TestRTTSampleSurvivesWallClockStep(t *testing.T) {
	for _, step := range []time.Duration{time.Hour, -time.Hour} {
		sched, topo := simPath(2e6, 0.010, 60)
		snd, rcv, sp, _ := simPair(topo, "a", "b", 1, nil, Config{PacketSize: 500})
		ck := &steppedClock{simClock: simClock{sched}, base: time.Now()}
		snd.attach(ck, sp.send)
		ck.step = step
		if now := ck.Now(); now.Sub(ck.base) != 0 || now.Round(0).Sub(ck.base.Round(0)) != step {
			t.Fatalf("steppedClock: monotonic %v, wall %v after a %v step", now.Sub(ck.base), now.Round(0).Sub(ck.base.Round(0)), step)
		}
		sched.At(0, snd.Run)
		sched.RunUntil(5)
		s := snd.Stats()
		if s.Rejected != (Rejects{}) || s.Feedbacks == 0 {
			t.Errorf("step %v: %d of %d reports taken, rejected %+v", step, s.Feedbacks, rcv.Stats().Reports, s.Rejected)
		}
		if s.SRTT < 20*time.Millisecond || s.SRTT > 270*time.Millisecond {
			t.Errorf("step %v: sender SRTT %v, want 20 ms + up to 60 packets of queueing", step, s.SRTT)
		}
	}
}

// probeAgent counts the packets netsim hands to a port.
type probeAgent struct {
	netsim.Agent
	n *int64
}

func (a probeAgent) Recv(p *netsim.Packet) { *a.n++; a.Agent.Recv(p) }

// TestEndpointsInterleavedLifecycleInvariant is core's
// TestSenderInterleavedLifecycleInvariant pointed at the real endpoints:
// a connection runs in virtual time while an arbitrary interleaving of
// forged reports carrying extreme values (loss rates of 0 and 1, receive
// rates from zero to 1e15, echoes a microsecond to ten seconds old or
// from the future), a feedback-link blackhole, a data-link outage,
// reorder + duplicate impairments and one Stop plays against it. After
// every single event:
//
//   - the allowed rate is finite and at or above the protocol floor, and
//     the packet gap is positive;
//   - a running sender has exactly its send timer and its no-feedback
//     timer armed, a stopped one neither, and sends nothing more;
//   - every frame either endpoint sent has been delivered, dropped by a
//     link, or is still in the network.
//
// The no-feedback re-arm bug lived in this corner for seven PRs.
func TestEndpointsInterleavedLifecycleInvariant(t *testing.T) {
	ps := []float64{0, 1e-12, 1e-6, 0.5, 1 - 1e-12, 1}
	xs := []float64{0, 1e-12, 1, 1000, 1e9, 1e15}
	ages := []time.Duration{-time.Second, time.Microsecond, time.Millisecond, 100 * time.Millisecond, time.Second, 10 * time.Second}
	const (
		pktSize = 500
		fwd     = "a->b" // data
		rev     = "b->a" // feedback
	)
	f := func(ops []uint16) bool {
		sched, topo := simPath(500e3, 0.010, 20)
		// MaxRate bounds the pacing, not the allowed rate: a forged
		// receive rate of 1e15 may take the allowed rate there, and the
		// run stays a few thousand packets.
		snd, rcv, sp, rp := simPair(topo, "a", "b", 1, nil, Config{PacketSize: pktSize, MaxRate: 100e3})
		sck, rck := &probeClock{Clock: simClock{sched}}, &probeClock{Clock: simClock{sched}}
		snd.attach(sck, sp.send)
		rcv.attach(rck, rp.send)
		sendT, noFbT, fbT := sck.timers[0], sck.timers[1], rck.timers[0]

		var delivered, drops, dups int64
		for _, p := range []*simPort{sp, rp} {
			p.node.Detach(p.id)
			p.node.Attach(p.id, probeAgent{p, &delivered})
		}
		for _, name := range []string{fwd, rev} {
			seen := map[int64]bool{}
			topo.LinkByName(name).AddTap(func(ev netsim.TapEvent, _ float64, p *netsim.Packet) {
				switch ev {
				case netsim.TapDrop:
					drops++
				case netsim.TapArrive:
					if seen[p.Seq] {
						dups++ // the second of two copies to reach the link
					}
					seen[p.Seq] = true
				}
			})
		}

		// The interleaving: faults go through the one fault vocabulary,
		// forged reports and the Stop are scheduler events beside them.
		fs := faults.Schedule{Seed: int64(len(ops))}
		now, stopAt, dupFrom := 0.5, math.Inf(1), math.Inf(1)
		for _, op := range ops {
			now += float64(op%97) / 100
			arg := int(op / 8)
			switch op % 8 {
			case 0, 1:
				fb := FeedbackPacket{
					LossEventRate: ps[arg%len(ps)],
					RecvRate:      xs[arg/6%len(xs)],
					EchoSendTime:  simEpoch.Add(dur(now) - ages[arg/36%len(ages)]),
				}
				sched.At(now, func() { rp.send(AppendFeedback(nil, fb)) })
			case 2:
				fs.Faults = append(fs.Faults, faults.Fault{At: now, Link: rev, Kind: faults.Blackhole})
			case 3:
				fs.Faults = append(fs.Faults, faults.Fault{At: now, Link: rev, Kind: faults.BlackholeOff})
			case 4:
				fs.Faults = append(fs.Faults, faults.Fault{At: now, Link: fwd, Kind: faults.LinkDown, Drain: arg%2 == 0})
			case 5:
				fs.Faults = append(fs.Faults, faults.Fault{At: now, Link: fwd, Kind: faults.LinkUp})
			case 6:
				on := float64(arg % 2)
				fs.Faults = append(fs.Faults, faults.Fault{At: now, Link: fwd, Kind: faults.Impair,
					Reorder: 0.2 * on, ReorderDelay: 0.015, Duplicate: 0.2 * on})
				if on > 0 {
					dupFrom = math.Min(dupFrom, now)
				}
			case 7:
				if arg%8 == 0 && math.IsInf(stopAt, 1) {
					stopAt = now
					sched.At(now, snd.Stop)
				}
			}
		}
		// Wind down: stop both ends and heal every link, so that what is
		// parked or held drains and the scheduler runs dry.
		end := now + 1
		fs.Faults = append(fs.Faults,
			faults.Fault{At: end, Link: rev, Kind: faults.BlackholeOff},
			faults.Fault{At: end, Link: fwd, Kind: faults.LinkUp},
			faults.Fault{At: end, Link: fwd, Kind: faults.Impair})
		if err := fs.Validate(); err != nil {
			t.Error(err)
			return false
		}
		fs.Apply(topo)
		sched.At(0, snd.Run)
		sched.At(end, snd.Stop)
		sched.At(end, rcv.Stop)

		live := topo.Network().Pool().Live
		floor := float64(pktSize) / 64
		var sentAtStop int64 = -1
		ok := func() bool {
			switch r := snd.core.Rate(); {
			case r < floor-1e-9 || r > 1e18 || math.IsNaN(r):
				t.Errorf("t=%v: rate %v", sched.Now(), r)
			case !(snd.core.PacketInterval() > 0):
				t.Errorf("t=%v: packet gap %v at rate %v", sched.Now(), snd.core.PacketInterval(), r)
			}
			isRunning := snd.state == senderRunning
			// The report timer runs from the first arrival on (core's
			// turns) until Stop.
			wantFbT := rcv.received > 0 && !rcv.stopped
			if sendT.armed != isRunning || noFbT.armed != isRunning || fbT.armed != wantFbT {
				t.Errorf("t=%v: running=%v but send timer armed=%v, no-feedback timer armed=%v; report timer armed=%v, receiver wants %v",
					sched.Now(), isRunning, sendT.armed, noFbT.armed, fbT.armed, wantFbT)
			}
			if snd.state == senderStopped {
				if sentAtStop < 0 {
					sentAtStop = snd.sent
				}
				if snd.sent != sentAtStop {
					t.Errorf("t=%v: %d packets sent after Stop", sched.Now(), snd.sent-sentAtStop)
				}
			}
			// Every packet object is a frame sent or a duplicate of one,
			// and is delivered, dropped or live. A duplicate is known as
			// one only when the second copy reaches the link, which a
			// reorder hold can delay — so mid-run the count of objects is
			// bounded below, and exact while nothing duplicates.
			sent, objects := sp.next+rp.next, delivered+drops+int64(live())
			if objects < sent+dups || (sched.Now() < dupFrom && objects != sent) {
				t.Errorf("t=%v: %d frames sent and %d duplicates seen, but %d delivered + %d dropped + %d in flight",
					sched.Now(), sent, dups, delivered, drops, live())
			}
			return !t.Failed()
		}
		for sched.Step() {
			if !ok() {
				return false
			}
		}
		if sent := sp.next + rp.next; live() != 0 || delivered+drops != sent+dups {
			t.Errorf("drained: %d frames sent + %d duplicates, %d delivered + %d dropped, %d still live",
				sent, dups, delivered, drops, live())
		}
		if snd.sent == 0 || !math.IsInf(stopAt, 1) && snd.sent != sentAtStop {
			t.Errorf("sent %d packets, %d at Stop", snd.sent, sentAtStop)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWireOverSim is the host cost of the wire transport per data
// packet: one flow on a clean two-host path, codec, endpoint timers,
// frame ring and both link hops included — the shape of the benchmark's
// tfrcsim.flow_ns_per_pkt, which measures the same path without them.
func BenchmarkWireOverSim(b *testing.B) {
	const simSeconds = 20
	var pkts int64
	for b.Loop() {
		sched := sim.NewScheduler()
		topo := netsim.NewTopology(sched, nil)
		topo.Link("a", "b", netsim.LinkSpec{Bandwidth: 8e6, Delay: 0.010, QueueLimit: 100})
		topo.Build()
		snd, _ := NewSimPair(topo, "a", "b", 1, nil, Config{})
		sched.At(0, snd.Run)
		sched.RunUntil(simSeconds)
		pkts += snd.Stats().Sent
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pkts), "ns/pkt")
	b.ReportMetric(float64(pkts)/float64(b.N), "pkts/op")
}
