package core

import (
	"math"
	"testing"
	"testing/quick"
)

// TestReceiverArbitraryArrivalsInvariant drives the receiver with
// arbitrary (possibly duplicated, reordered, gap-ridden) arrival
// sequences and checks the invariants that must hold regardless:
// no panic, p ∈ [0, 1], and a well-formed report whenever data flowed.
// A twin receiver fed the same arrivals is read after every one of them
// (P and the history's average): its reports must be bit-equal to those
// of the receiver nobody reads.
func TestReceiverArbitraryArrivalsInvariant(t *testing.T) {
	sameReport := func(a, b Report, aok, bok bool) bool {
		return aok == bok && math.Float64bits(a.P) == math.Float64bits(b.P) &&
			math.Float64bits(a.XRecv) == math.Float64bits(b.XRecv) && a.EchoSeq == b.EchoSeq &&
			a.EchoSendTime == b.EchoSendTime && a.EchoDelay == b.EchoDelay
	}
	f := func(seqs []uint16, rttMs uint8) bool {
		r := NewReceiver(ReceiverConfig{PacketSize: 1000})
		twin := NewReceiver(ReceiverConfig{PacketSize: 1000})
		rtt := float64(rttMs%200+1) / 1000
		now := 0.0
		for i, sq := range seqs {
			pkt := DataPacket{
				Seq:       int64(sq % 2000),
				Size:      1000,
				SendTime:  now - rtt/2,
				SenderRTT: rtt,
			}
			r.OnData(now, pkt)
			twin.OnData(now, pkt)
			now += 0.001
			p := twin.P()
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			if avg := twin.History().AvgInterval(); avg < 0 || math.IsNaN(avg) {
				return false
			}
			if i%16 == 15 && i+1 < len(seqs) {
				rep, ok := r.MakeReport(now)
				trep, tok := twin.MakeReport(now)
				if !sameReport(rep, trep, ok, tok) {
					return false
				}
			}
		}
		if len(seqs) > 0 {
			rep, ok := r.MakeReport(now)
			trep, tok := twin.MakeReport(now)
			if !ok || !sameReport(rep, trep, ok, tok) {
				return false
			}
			if rep.XRecv <= 0 || math.IsNaN(rep.XRecv) || math.IsInf(rep.XRecv, 0) {
				return false
			}
			if rep.P < 0 || rep.P > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestSenderArbitraryFeedbackInvariant drives the sender with arbitrary
// feedback values: the rate must stay positive, finite, and at or above
// the backoff floor.
func TestSenderArbitraryFeedbackInvariant(t *testing.T) {
	f := func(ps, xs, rtts []uint16) bool {
		s := NewSender(DefaultSenderConfig())
		n := len(ps)
		if len(xs) < n {
			n = len(xs)
		}
		if len(rtts) < n {
			n = len(rtts)
		}
		floor := 1000.0 / 64
		for i := 0; i < n; i++ {
			s.OnFeedback(Feedback{
				P:         float64(ps[i]) / 65535, // [0, 1]
				XRecv:     float64(xs[i]) * 100,
				RTTSample: float64(rtts[i]%1000) / 1000,
			})
			r := s.Rate()
			if r < floor-1e-9 || math.IsNaN(r) || math.IsInf(r, 0) {
				return false
			}
			iv := s.PacketInterval()
			if iv <= 0 || math.IsNaN(iv) || math.IsInf(iv, 0) {
				return false
			}
			if to := s.NoFeedbackTimeout(); to <= 0 || math.IsInf(to, 0) {
				return false
			}
		}
		s.OnNoFeedback()
		return s.Rate() > 0 && !math.IsNaN(s.Rate())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSenderInterleavedLifecycleInvariant interleaves feedback carrying
// extreme values (loss rates of 0 and 1, receive rates from zero to
// 1e15, RTT samples from none — 0 and −1 ms, which the sender refuses
// until it has an estimate — through a microsecond to multi-second
// RTTs) with no-feedback expiries in arbitrary order. Whatever the
// history, the sender must keep its rate in [protocol floor, finite],
// and both the packet interval and the no-feedback timeout positive and
// finite — the state machine has no sequence of inputs that wedges it.
func TestSenderInterleavedLifecycleInvariant(t *testing.T) {
	ps := []float64{0, 1e-12, 1e-6, 0.5, 1 - 1e-12, 1}
	xs := []float64{0, 1e-12, 1, 1000, 1e9, 1e15}
	rtts := []float64{-1e-3, 0, 1e-6, 1e-3, 0.1, 1, 10}
	f := func(ops []uint16) bool {
		s := NewSender(DefaultSenderConfig())
		floor := 1000.0 / 64
		for _, op := range ops {
			switch op % 6 {
			case 0, 1, 2: // feedback dominates real traces; weight it 3-in-6
				s.OnFeedback(Feedback{
					P:         ps[int(op/6)%len(ps)],
					XRecv:     xs[int(op/36)%len(xs)],
					RTTSample: rtts[int(op/216)%len(rtts)],
				})
			case 3, 4, 5:
				s.OnNoFeedback()
			}
			r := s.Rate()
			if r < floor-1e-9 || r > 1e18 || math.IsNaN(r) {
				return false
			}
			if iv := s.PacketInterval(); iv <= 0 || math.IsNaN(iv) || math.IsInf(iv, 0) {
				return false
			}
			if to := s.NoFeedbackTimeout(); to <= 0 || math.IsNaN(to) || math.IsInf(to, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestLossHistoryArbitrarySequenceInvariant mixes loss events, seeds, and
// open-interval updates arbitrarily: the estimate must remain finite,
// positive once any interval exists, and within the plausible hull.
func TestLossHistoryArbitrarySequenceInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		h := NewLossHistory(DefaultLossHistory())
		maxIv := 1.0
		for _, op := range ops {
			v := float64(op%5000) + 1
			switch op % 3 {
			case 0:
				h.OnLossEvent(v)
				if v > maxIv {
					maxIv = v
				}
			case 1:
				h.SetOpen(v)
				if v > maxIv {
					maxIv = v
				}
			case 2:
				h.Seed(v)
				if v > maxIv {
					maxIv = v
				}
			}
			if !h.HaveLoss() {
				continue
			}
			avg := h.AvgInterval()
			if avg < 1-1e-9 || avg > maxIv+1e-9 || math.IsNaN(avg) {
				return false
			}
			p := h.LossEventRate()
			if p <= 0 || p > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
