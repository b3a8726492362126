package wire

import (
	"bytes"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"tfrc/internal/faults"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
)

// simPath is the testbed of this file: hosts "a" and "b" joined by one
// link of the given rate (bits/sec), one-way delay (seconds) and
// DropTail limit in each direction — a Dummynet pipe in virtual time.
func simPath(bw, delay float64, limit int) (*sim.Scheduler, *netsim.Topology) {
	sched := sim.NewScheduler()
	topo := netsim.NewTopology(sched, nil)
	topo.Link("a", "b", netsim.LinkSpec{Bandwidth: bw, Delay: delay, QueueLimit: limit})
	topo.Build()
	return sched, topo
}

// rawPorts puts an idle connection on the path and returns its two ports
// with b's arrivals diverted to got: the datagram seam without the
// endpoints behind it.
func rawPorts(topo *netsim.Topology, got func(b []byte)) (a, b *simPort) {
	_, _, a, b = simPair(topo, "a", "b", 1, nil, Config{})
	b.deliver = got
	return a, b
}

// impair installs one impairment on the named link from time zero.
func impair(topo *netsim.Topology, link string, seed int64, imp faults.Fault) {
	imp.Link, imp.Kind = link, faults.Impair
	(&faults.Schedule{Seed: seed, Faults: []faults.Fault{imp}}).Apply(topo)
}

// linkDrops counts the packets the named link drops.
func linkDrops(topo *netsim.Topology, link string) *int {
	n := new(int)
	topo.LinkByName(link).AddTap(func(ev netsim.TapEvent, _ float64, _ *netsim.Packet) {
		if ev == netsim.TapDrop {
			*n++
		}
	})
	return n
}

// The TestEmuPipe* tests pin, on the simulated path, what the endpoints
// relied on from the wall-clock emulator this driver replaced: intact
// bytes after serialization plus propagation, loss, pacing at the link
// rate, a bounded queue, and silence from a stopped end.

func TestEmuPipeDelivers(t *testing.T) {
	sched, topo := simPath(8e6, 0.005, 10)
	var got []byte
	var at float64
	a, _ := rawPorts(topo, func(b []byte) { got, at = bytes.Clone(b), sched.Now() })
	a.send([]byte("ping"))
	sched.Run()
	if string(got) != "ping" {
		t.Fatalf("got %q", got)
	}
	if want := 4*8/8e6 + 0.005; at != want {
		t.Fatalf("delivered at %v, want serialization + delay = %v", at, want)
	}
}

func TestEmuPipeLoss(t *testing.T) {
	sched, topo := simPath(8e6, 0.005, 10)
	drops := linkDrops(topo, "a->b")
	impair(topo, "a->b", 1, faults.Fault{Corrupt: 1})
	a, _ := rawPorts(topo, func([]byte) { t.Fatal("packet survived 100% loss") })
	sched.At(0.001, func() { a.send([]byte("x")) })
	sched.Run()
	if *drops != 1 {
		t.Fatalf("drops = %d", *drops)
	}
}

func TestEmuPipeBandwidthPacing(t *testing.T) {
	// 10 packets of 1000 B at 800 kb/s serialize in 10 ms each.
	sched, topo := simPath(800e3, 0, 64)
	var times []float64
	a, _ := rawPorts(topo, func([]byte) { times = append(times, sched.Now()) })
	for i := 0; i < 10; i++ {
		a.send(make([]byte, 1000))
	}
	sched.Run()
	if len(times) != 10 {
		t.Fatalf("%d of 10 delivered", len(times))
	}
	for i, at := range times {
		if want := float64(i+1) * 0.010; math.Abs(at-want) > 1e-12 {
			t.Fatalf("packet %d delivered at %v, want %v", i, at, want)
		}
	}
}

func TestEmuPipeQueueOverflowDrops(t *testing.T) {
	sched, topo := simPath(100e3, 0, 5)
	drops := linkDrops(topo, "a->b")
	delivered := 0
	a, _ := rawPorts(topo, func([]byte) { delivered++ })
	for i := 0; i < 100; i++ {
		a.send(make([]byte, 1500))
	}
	sched.Run()
	// One serializing, five queued, the rest refused.
	if delivered != 6 || *drops != 94 {
		t.Fatalf("delivered %d, dropped %d; want 6 and 94", delivered, *drops)
	}
}

func TestEmuClosedConn(t *testing.T) {
	// A stopped endpoint neither sends nor listens, and holds no timer:
	// the scheduler runs dry.
	sched, topo := simPath(2e6, 0.010, 60)
	send, recv := NewSimPair(topo, "a", "b", 1, nil, Config{PacketSize: 500})
	sched.At(0, send.Run)
	sched.RunUntil(1)
	send.Stop()
	recv.Stop()
	before, got := send.Stats(), recv.Stats()
	sched.Run() // returns only if nothing re-arms
	if after := send.Stats(); after != before {
		t.Fatalf("sender moved after Stop: %+v then %+v", before, after)
	}
	if after := recv.Stats(); after.Received != got.Received || after.Reports != got.Reports {
		t.Fatalf("receiver moved after Stop: %+v then %+v", got, after)
	}
	send.Run() // a stopped sender stays stopped
	sched.Run()
	if after := send.Stats(); after.Sent != before.Sent {
		t.Fatal("Run restarted a stopped sender")
	}
}

func TestSimDuplicateDecodesTwice(t *testing.T) {
	// A duplicate impairment copies the netsim packet, sequence number
	// and all, so both copies decode the one frame the port stored.
	sched, topo := simPath(8e6, 0.005, 10)
	impair(topo, "a->b", 1, faults.Fault{Duplicate: 1})
	var got []string
	a, _ := rawPorts(topo, func(b []byte) { got = append(got, string(b)) })
	sched.At(0.001, func() { a.send([]byte("one")); a.send([]byte("two")) })
	sched.Run()
	if want := []string{"one", "one", "two", "two"}; !slices.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestSimFrameWindow(t *testing.T) {
	// A frame overtaken by frameWindow later ones has left the ring: its
	// arrival is counted, never decoded as somebody else's bytes.
	sched, topo := simPath(8e6, 0.5, frameWindow+10)
	delivered := 0
	a, b := rawPorts(topo, func(p []byte) {
		if len(p) != 2 {
			t.Fatalf("decoded %x", p)
		}
		delivered++
	})
	for i := 0; i < frameWindow+3; i++ {
		a.send([]byte{byte(i), byte(i >> 8)})
	}
	sched.Run()
	if delivered != frameWindow || b.expired != 3 {
		t.Fatalf("delivered %d, expired %d; want %d and 3", delivered, b.expired, frameWindow)
	}
}

// runPair runs a connection over the path for d simulated seconds.
func runPair(sched *sim.Scheduler, topo *netsim.Topology, cfg Config, d float64) (*Sender, *Receiver) {
	send, recv := NewSimPair(topo, "a", "b", 1, nil, cfg)
	sched.At(0, send.Run)
	sched.RunUntil(d)
	return send, recv
}

func TestWireOverEmulatedPath(t *testing.T) {
	// 2 Mb/s, 10 ms each way, no random loss: the sender climbs out of
	// its 1-packet/s initial rate and fills the link.
	sched, topo := simPath(2e6, 0.010, 60)
	send, recv := runPair(sched, topo, Config{PacketSize: 500}, 10)
	s, r := send.Stats(), recv.Stats()
	if s.Sent < 2000 {
		t.Fatalf("sent only %d packets — slow start never engaged", s.Sent)
	}
	if r.Received < s.Sent*9/10 {
		t.Fatalf("received %d of %d", r.Received, s.Sent)
	}
	if s.Feedbacks == 0 || s.Feedbacks != r.Reports {
		t.Fatalf("feedback: %d processed of %d sent", s.Feedbacks, r.Reports)
	}
	// Every report re-arms the no-feedback timer, so a healthy flow takes
	// no cut — a timer left at its boot value would fire ten times a
	// second here. The one allowed is start-up's: the second report
	// leaves the receiver 100 ms after the first, which set the timer to
	// 2s/X = 100 ms, and the expiry wins the tie (as in tfrcsim).
	if s.NoFeedbackCuts > 1 {
		t.Fatalf("%d no-feedback cuts on a clean path", s.NoFeedbackCuts)
	}
	if s.SRTT < 20*time.Millisecond || s.SRTT > 270*time.Millisecond {
		t.Fatalf("sender SRTT %v, want 20 ms + up to 60 packets of queueing", s.SRTT)
	}
	if r.SRTT <= 0 || r.Rate <= 0 {
		t.Fatalf("receiver snapshot: %+v", r)
	}
	if s.Rejected != (Rejects{}) || r.Rejected != (Rejects{}) {
		t.Fatalf("clean path rejected frames: %+v %+v", s.Rejected, r.Rejected)
	}
}

func TestWireLossDetection(t *testing.T) {
	// A lossy path must produce a loss event rate near its loss rate and
	// a far lower rate than a clean one that only congests itself.
	run := func(corrupt float64) (SenderStats, ReceiverStats) {
		sched, topo := simPath(100e6, 0.005, 100)
		impair(topo, "a->b", 7, faults.Fault{Corrupt: corrupt})
		send, recv := runPair(sched, topo, Config{PacketSize: 300}, 5)
		return send.Stats(), recv.Stats()
	}
	clean, cleanRecv := run(0)
	lossy, lossyRecv := run(0.05)
	if lossyRecv.P < 0.01 || lossyRecv.P > 0.1 || cleanRecv.P > lossyRecv.P/10 {
		t.Fatalf("loss estimates: clean %v, lossy %v", cleanRecv.P, lossyRecv.P)
	}
	if lossy.Sent >= clean.Sent/2 {
		t.Fatalf("lossy sender sent %d, clean %d", lossy.Sent, clean.Sent)
	}
}

func TestWireNoFeedbackBackoff(t *testing.T) {
	// Kill the reverse path from the start: the no-feedback timer halves
	// the 1 packet/s initial rate every 2 s, down to the floor.
	sched, topo := simPath(2e6, 0.001, 60)
	s := faults.Blackout("b->a", 0, 1000)
	s.Apply(topo)
	send, _ := runPair(sched, topo, Config{PacketSize: 200}, 2.5)
	if st := send.Stats(); st.NoFeedbackCuts != 1 || st.Rate != 100 || st.Feedbacks != 0 {
		t.Fatalf("after one expiry: %+v", st)
	}
	sched.RunUntil(60)
	if st := send.Stats(); st.Rate != 200.0/64 {
		t.Fatalf("rate %v, want the floor of one packet per 64 s", st.Rate)
	}
}

func TestWireOverRealUDP(t *testing.T) {
	// Loopback UDP end-to-end: the OS driver, the real-world code path of
	// the paper's implementation, and the one wall-clock test of the
	// package. Application-limited to keep it light.
	rconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP available: %v", err)
	}
	defer rconn.Close()
	sconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP available: %v", err)
	}
	defer sconn.Close()

	cfg := Config{PacketSize: 400, MaxRate: 200e3}
	recv := NewReceiver(rconn, cfg)
	var gotPayload bool // written in the receiver's turn, read after Run returns
	recv.OnData = func(seq uint32, payload []byte) {
		if len(payload) > 0 {
			gotPayload = true
		}
	}
	send := NewSender(sconn, rconn.LocalAddr(), nil, cfg)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); recv.Run() }()
	go func() { defer wg.Done(); send.Run() }()
	time.Sleep(900 * time.Millisecond)
	send.Stop()
	recv.Stop()
	wg.Wait()

	s, r := send.Stats(), recv.Stats()
	if s.Sent < 5 || r.Received < 3 || s.Feedbacks == 0 || s.SRTT <= 0 {
		t.Fatalf("UDP run too quiet: %+v %+v", s, r)
	}
	if !gotPayload {
		t.Fatal("OnData never saw payload")
	}
	// MaxRate caps the pacing (the achieved rate), not the allowed rate.
	if achieved := float64(s.Sent) * 400 / 0.9; achieved > 1.5*200e3 {
		t.Fatalf("achieved %v B/s blew past MaxRate cap", achieved)
	}

	// An expiry that loses the race for the endpoint's mutex to a Stop
	// must see that it is stale.
	var mu sync.Mutex
	fired := false
	tm := osClock{&mu}.NewTimer(func() { fired = true })
	mu.Lock()
	tm.Reset(time.Millisecond)
	time.Sleep(20 * time.Millisecond) // the expiry is now waiting for mu
	tm.Stop()
	mu.Unlock()
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if fired {
		t.Fatal("a stopped timer fired")
	}
}

func TestPathFaultWindow(t *testing.T) {
	// The a→b direction starts clean, is blackholed over [0.1, 0.5), and
	// heals: a fault reaches the path through Schedule.Apply and nothing
	// else.
	sched, topo := simPath(8e6, 0.001, 10)
	drops := linkDrops(topo, "a->b")
	w := faults.Blackout("a->b", 0.1, 0.5)
	w.Apply(topo)
	var got []string
	a, _ := rawPorts(topo, func(b []byte) { got = append(got, string(b)) })
	for _, m := range []struct {
		at  float64
		msg string
	}{{0.05, "clean"}, {0.25, "lossy"}, {0.7, "healed"}} {
		sched.At(m.at, func() { a.send([]byte(m.msg)) })
	}
	sched.Run()
	if !slices.Equal(got, []string{"clean", "healed"}) || *drops != 1 {
		t.Fatalf("delivered %q with %d drops; want clean and healed, 1 drop", got, *drops)
	}
}

func TestPathBandwidthStep(t *testing.T) {
	// A rate step reaches the path as a bandwidth fault: packets sent
	// after it serialize 50x slower.
	sched, topo := simPath(8e6, 0, 64)
	step := faults.Schedule{Faults: []faults.Fault{{At: 0.05, Link: "a->b", Kind: faults.BandwidthCollapse, Bandwidth: 160e3}}}
	step.Apply(topo)
	var sentAt float64
	var took []float64
	a, _ := rawPorts(topo, func([]byte) { took = append(took, sched.Now()-sentAt) })
	for _, at := range []float64{0.01, 0.08} {
		sched.At(at, func() { sentAt = sched.Now(); a.send(make([]byte, 1000)) })
	}
	sched.Run()
	if len(took) != 2 || math.Abs(took[0]-0.001) > 1e-12 || math.Abs(took[1]-0.050) > 1e-12 {
		t.Fatalf("deliveries took %v, want 1 ms then 50 ms", took)
	}
}

func TestForgedFeedbackInVirtualTime(t *testing.T) {
	// A forged report with NaN, negative or infinite rates is counted and
	// dropped; the sender keeps its rate and its pacing. At the parent
	// commit the NaN reached the rate equation and the send timer.
	sched, topo := simPath(2e6, 0.010, 60)
	send, _, _, rp := simPair(topo, "a", "b", 1, nil, Config{PacketSize: 500})
	sched.At(0, send.Run)
	sched.RunUntil(3)
	before := send.Stats()
	forged := []FeedbackPacket{
		{LossEventRate: math.NaN(), RecvRate: math.Inf(1)},
		{LossEventRate: 0.01, RecvRate: -1},
		{LossEventRate: 2, RecvRate: 1e5},
	}
	for _, fb := range forged {
		fb.EchoSendTime = simEpoch.Add(2990 * time.Millisecond)
		rp.send(AppendFeedback(nil, fb))
	}
	rp.send([]byte("stray"))
	rp.send(AppendFeedback(nil, FeedbackPacket{})[:12])
	sched.RunUntil(3.1)
	st := send.Stats()
	if want := (Rejects{NotTFRC: 1, Truncated: 1, Malformed: 3}); st.Rejected != want {
		t.Fatalf("rejected %+v, want %+v", st.Rejected, want)
	}
	if math.IsNaN(st.Rate) || math.IsInf(st.Rate, 0) || st.Rate < before.Rate/2 || st.Rate > before.Rate*2 {
		t.Fatalf("rate %v after forged reports, %v before", st.Rate, before.Rate)
	}
	// 100 ms at the allowed rate, not a free run.
	if n, most := st.Sent-before.Sent, int64(0.1*st.Rate/500)+2; n > most {
		t.Fatalf("sent %d packets in 100 ms at %v B/s; a paced sender sends at most %d", n, st.Rate, most)
	}

	// An echo from the future carries no RTT sample; before the first
	// sample there is nothing to run the equation on.
	sched2, topo2 := simPath(2e6, 0.010, 60)
	send2, _, _, rp2 := simPair(topo2, "a", "b", 1, nil, Config{PacketSize: 500})
	sched2.At(0, send2.Run)
	sched2.At(0.001, func() {
		rp2.send(AppendFeedback(nil, FeedbackPacket{LossEventRate: 0.5, EchoSendTime: simEpoch.Add(time.Hour)}))
	})
	sched2.RunUntil(0.05)
	if st := send2.Stats(); st.Rejected.Malformed != 1 || st.Rate != 500 {
		t.Fatalf("future echo before any RTT sample: %+v", st)
	}
}
