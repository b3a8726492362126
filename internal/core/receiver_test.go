package core

import (
	"math"
	"runtime"
	"testing"
)

func newTestReceiver() *Receiver {
	return NewReceiver(ReceiverConfig{PacketSize: 1000})
}

// feed delivers packets seq..seq+n-1 at the given inter-arrival spacing,
// returning the next time.
func feed(r *Receiver, now float64, seq int64, n int, dt, rtt float64) float64 {
	for i := 0; i < n; i++ {
		r.OnData(now, DataPacket{Seq: seq + int64(i), Size: 1000, SendTime: now - rtt/2, SenderRTT: rtt})
		now += dt
	}
	return now
}

func TestReceiverNoLossInOrder(t *testing.T) {
	r := newTestReceiver()
	feed(r, 0, 0, 100, 0.01, 0.1)
	if r.P() != 0 {
		t.Fatalf("p = %v with no loss", r.P())
	}
	if r.SenderRTT() != 0.1 {
		t.Fatalf("sender RTT = %v", r.SenderRTT())
	}
}

func TestReceiverDetectsGapAsLossEvent(t *testing.T) {
	r := newTestReceiver()
	now := feed(r, 0, 0, 10, 0.01, 0.1)
	// Seq 10 lost: next arrival is 11.
	if !r.OnData(now, DataPacket{Seq: 11, Size: 1000, SendTime: now - 0.05, SenderRTT: 0.1}) {
		t.Fatal("gap did not start a loss event")
	}
	if r.P() <= 0 {
		t.Fatal("p still zero after loss")
	}
}

func TestReceiverAggregatesLossesWithinRTT(t *testing.T) {
	// §3.5.1: losses within one RTT of the event start are one event.
	r := newTestReceiver()
	now := feed(r, 0, 0, 50, 0.001, 0.1) // 1 ms spacing, RTT 100 ms
	// Lose every other packet across 50 ms — all within one RTT.
	events := 0
	for i := 0; i < 25; i++ {
		if r.OnData(now, DataPacket{Seq: 50 + 2*int64(i), Size: 1000, SendTime: now - 0.05, SenderRTT: 0.1}) {
			events++
		}
		now += 0.002
	}
	if events != 1 {
		t.Fatalf("saw %d loss events, want 1 (aggregation)", events)
	}
}

func TestReceiverSeparatesEventsAcrossRTTs(t *testing.T) {
	r := newTestReceiver()
	rtt := 0.01 // 10 ms
	now := feed(r, 0, 0, 100, 0.001, rtt)
	events := 0
	seq := int64(100)
	// Three well-separated losses: gap, then > RTT of clean arrivals.
	for round := 0; round < 3; round++ {
		seq++ // skip one → loss
		if r.OnData(now, DataPacket{Seq: seq, Size: 1000, SendTime: now, SenderRTT: rtt}) {
			events++
		}
		now += 0.001
		seq++
		now = feed(r, now, seq, 30, 0.001, rtt) // 30 ms ≫ RTT
		seq += 30
	}
	if events != 3 {
		t.Fatalf("saw %d loss events, want 3", events)
	}
}

func TestReceiverLossIntervalLengths(t *testing.T) {
	// Lose exactly every 100th packet with ample time between events:
	// after the seeded first event, intervals must all be 100.
	r := NewReceiver(ReceiverConfig{PacketSize: 1000})
	rtt := 0.001
	now := 0.0
	seq := int64(0)
	for cycle := 0; cycle < 12; cycle++ {
		now = feed(r, now, seq, 99, 0.001, rtt)
		seq += 99
		seq++ // lose one
	}
	ivs := r.History().closed
	if len(ivs) < 8 {
		t.Fatalf("history has %d intervals, want 8", len(ivs))
	}
	for i, iv := range ivs[:8] {
		if math.Abs(iv-100) > 1e-9 {
			t.Fatalf("interval[%d] = %v, want 100", i, iv)
		}
	}
	if p := r.P(); math.Abs(p-0.01) > 1e-9 {
		t.Fatalf("p = %v, want 0.01", p)
	}
}

func TestReceiverSeedsOnFirstLoss(t *testing.T) {
	// First loss terminates slow start: the history must hold one
	// synthetic interval matching half the receive rate (§3.4.1),
	// not the meaningless count of pre-loss packets.
	r := newTestReceiver()
	rtt := 0.1
	dt := 0.001 // 1000 pkts/sec → X_recv = 1 MB/s
	now := feed(r, 0, 0, 500, dt, rtt)
	r.OnData(now, DataPacket{Seq: 501, Size: 1000, SendTime: now, SenderRTT: rtt})
	ivs := r.History().closed
	if len(ivs) != 1 {
		t.Fatalf("history has %d intervals after first loss, want 1 (seed)", len(ivs))
	}
	pSeed := InverseP(PFTK, 1000, rtt, 4*rtt, 500000) // half of 1 MB/s
	if got, want := ivs[0], 1/pSeed; math.Abs(got-want)/want > 0.05 {
		t.Fatalf("seed interval = %v, want ≈ %v", got, want)
	}
}

func TestReceiverReportContents(t *testing.T) {
	r := newTestReceiver()
	now := 0.0
	for i := int64(0); i < 10; i++ {
		r.OnData(now, DataPacket{Seq: i, Size: 1000, SendTime: now - 0.05, SenderRTT: 0.1})
		now += 0.01
	}
	// 10 kB over [0, 0.09]; report at t = 0.1.
	rep, ok := r.MakeReport(0.1)
	if !ok {
		t.Fatal("no report despite data")
	}
	if rep.EchoSeq != 9 {
		t.Fatalf("echo seq = %d, want 9", rep.EchoSeq)
	}
	if math.Abs(rep.XRecv-100000) > 1 {
		t.Fatalf("XRecv = %v, want 100000", rep.XRecv)
	}
	// Newest packet arrived at 0.09, reported at 0.10 → delay 0.01.
	if math.Abs(rep.EchoDelay-0.01) > 1e-9 {
		t.Fatalf("echo delay = %v, want 0.01", rep.EchoDelay)
	}
	// Sender-side sample: receives report at 0.11; packet sent at 0.04.
	// RTT = 0.11 − 0.04 − 0.01 = 0.06.
	s := NewSender(DefaultSenderConfig())
	if ok, _, _ := s.OnReport(0.11, rep, 0); !ok {
		t.Fatal("sender refused the report")
	}
	if got := s.RTT().Last(); math.Abs(got-0.06) > 1e-9 {
		t.Fatalf("RTT sample = %v, want 0.06", got)
	}
}

func TestReceiverNoReportWithoutData(t *testing.T) {
	r := newTestReceiver()
	if _, ok := r.MakeReport(1); ok {
		t.Fatal("report with no data")
	}
	feed(r, 0, 0, 5, 0.01, 0.1)
	if _, ok := r.MakeReport(0.05); !ok {
		t.Fatal("no report after data")
	}
	// Window reset: no new data → no new report.
	if _, ok := r.MakeReport(0.2); ok {
		t.Fatal("report despite empty feedback interval")
	}
}

func TestReceiverDuplicateAndReorderTolerated(t *testing.T) {
	r := newTestReceiver()
	now := feed(r, 0, 0, 10, 0.01, 0.1)
	r.OnData(now, DataPacket{Seq: 5, Size: 1000, SendTime: now, SenderRTT: 0.1}) // duplicate
	r.OnData(now, DataPacket{Seq: 3, Size: 1000, SendTime: now, SenderRTT: 0.1}) // reordered
	if r.P() != 0 {
		t.Fatalf("duplicates created loss: p = %v", r.P())
	}
	// They still count toward the receive rate.
	rep, ok := r.MakeReport(now + 0.01)
	if !ok || rep.XRecv <= 0 {
		t.Fatalf("report: ok=%v XRecv=%v", ok, rep.XRecv)
	}
}

func TestReceiverOpenIntervalTracksMaxSeq(t *testing.T) {
	r := newTestReceiver()
	now := feed(r, 0, 0, 10, 0.001, 0.001)
	// Loss at 10, arrival 11.
	r.OnData(now, DataPacket{Seq: 11, Size: 1000, SendTime: now, SenderRTT: 0.001})
	now += 0.01
	now = feed(r, now, 12, 50, 0.001, 0.001)
	// Open interval = maxSeq − eventStartSeq = 61 − 10 = 51.
	if got := r.History().Open(); math.Abs(got-51) > 1e-9 {
		t.Fatalf("open interval = %v, want 51", got)
	}
}

func TestReceiverConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config did not panic")
		}
	}()
	NewReceiver(ReceiverConfig{PacketSize: 0})
}

// TestReceiverInitAllocatesNothing pins that a receiver's whole state,
// its loss-interval ring included, sits in the receiver's own slot: Init
// on a receiver allocated beforehand allocates nothing, the first time
// or after losses, and a re-Init leaves no history behind. The cheapest
// of three tries is judged, as MemStats counts the whole process.
func TestReceiverInitAllocatesNothing(t *testing.T) {
	cfg := ReceiverConfig{PacketSize: 1000}
	initAllocs := func(r *Receiver) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.Init(cfg)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	fresh, again := ^uint64(0), ^uint64(0)
	for try := 0; try < 3; try++ {
		r := new(Receiver)
		fresh = min(fresh, initAllocs(r))
		now := feed(r, 0, 0, 50, 0.01, 0.1)
		now = feed(r, now, 60, 50, 0.01, 0.1)
		feed(r, now+1, 120, 50, 0.01, 0.1)
		if !r.History().HaveLoss() || r.P() == 0 {
			t.Fatal("two gaps left no loss history to reset")
		}
		again = min(again, initAllocs(r))
		if r.History().HaveLoss() || r.P() != 0 {
			t.Fatal("Init kept the previous flow's loss history")
		}
	}
	t.Logf("Receiver.Init: %d allocations fresh, %d after losses", fresh, again)
	if fresh != 0 || again != 0 {
		t.Errorf("Receiver.Init allocated %d times on a fresh receiver and %d after losses, want 0", fresh, again)
	}
}
