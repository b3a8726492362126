package core

import (
	"math"
	"testing"
)

func newTestSender() *Sender {
	cfg := DefaultSenderConfig()
	cfg.SqrtSpacing = false // keep spacing arithmetic simple unless tested
	return NewSender(cfg)
}

func TestSenderInitialRate(t *testing.T) {
	s := newTestSender()
	if got := s.Rate(); got != 1000 {
		t.Fatalf("initial rate = %v, want 1 packet/sec = 1000 B/s", got)
	}
	if !s.InSlowStart() {
		t.Fatal("fresh sender not in slow start")
	}
}

func TestSenderSlowStartDoubles(t *testing.T) {
	s := newTestSender()
	s.OnFeedback(Feedback{P: 0, XRecv: 1e9, RTTSample: 0.1})
	// First feedback sets the per-RTT floor s/R = 10 kB/s, then doubles.
	base := s.Rate()
	if base < 10000 {
		t.Fatalf("rate after first feedback = %v, want ≥ s/R = 10000", base)
	}
	r2 := s.OnFeedback(Feedback{P: 0, XRecv: 1e9, RTTSample: 0.1})
	if math.Abs(r2-2*base) > 1e-9 {
		t.Fatalf("slow start did not double: %v → %v", base, r2)
	}
}

func TestSenderSlowStartCappedByReceiveRate(t *testing.T) {
	// §3.4.1: T ← min(2·T, 2·T_recv) bounds overshoot like TCP's
	// ACK clock.
	s := newTestSender()
	s.OnFeedback(Feedback{P: 0, XRecv: 1e9, RTTSample: 0.1})
	for i := 0; i < 20; i++ {
		s.OnFeedback(Feedback{P: 0, XRecv: 50000, RTTSample: 0.1})
	}
	if got := s.Rate(); got > 100000+1e-9 {
		t.Fatalf("slow start rate %v exceeds 2·XRecv = 100000", got)
	}
}

func TestSenderLeavesSlowStartOnLoss(t *testing.T) {
	s := newTestSender()
	s.OnFeedback(Feedback{P: 0, XRecv: 1e6, RTTSample: 0.1})
	s.OnFeedback(Feedback{P: 0.01, XRecv: 1e6, RTTSample: 0.1})
	if s.InSlowStart() {
		t.Fatal("sender still in slow start after loss report")
	}
	// Rate equals the control equation's value.
	want := PFTK(1000, s.RTT().SRTT(), s.RTT().RTO(), 0.01)
	if got := s.Rate(); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("rate = %v, want equation value %v", got, want)
	}
}

func TestSenderEquationTracking(t *testing.T) {
	// Once out of slow start, a rising p must lower the rate and a
	// falling p must raise it.
	s := newTestSender()
	s.OnFeedback(Feedback{P: 0.01, XRecv: 1e9, RTTSample: 0.1})
	r1 := s.Rate()
	s.OnFeedback(Feedback{P: 0.04, XRecv: 1e9, RTTSample: 0.1})
	r2 := s.Rate()
	s.OnFeedback(Feedback{P: 0.005, XRecv: 1e9, RTTSample: 0.1})
	r3 := s.Rate()
	if !(r2 < r1 && r3 > r2) {
		t.Fatalf("rates %v, %v, %v not tracking the equation", r1, r2, r3)
	}
}

func TestSenderDecreasePolicies(t *testing.T) {
	// A rising loss rate takes the rate straight down to the equation's
	// value: the paper's decrease-to-T, the only policy (§3.2).
	s := newTestSender()
	s.OnFeedback(Feedback{P: 0.001, XRecv: 1e9, RTTSample: 0.1})
	before := s.Rate()
	after := s.OnFeedback(Feedback{P: 0.004, XRecv: 1e9, RTTSample: 0.1})
	target := PFTK(1000, s.RTT().SRTT(), s.RTT().RTO(), 0.004)
	if !(target < before) || math.Abs(after-target) > 1e-9 {
		t.Fatalf("before=%v after=%v target=%v", before, after, target)
	}
}

func TestSenderNoFeedbackHalves(t *testing.T) {
	s := newTestSender()
	s.OnFeedback(Feedback{P: 0.001, XRecv: 1e9, RTTSample: 0.1})
	r := s.Rate()
	s.OnNoFeedback()
	if got := s.Rate(); math.Abs(got-r/2) > 1e-9 {
		t.Fatalf("no-feedback rate = %v, want %v", got, r/2)
	}
	// Repeated expiries floor at one packet per MaxBackoffInterval:
	// the sender "ultimately stops sending" for practical purposes.
	for i := 0; i < 100; i++ {
		s.OnNoFeedback()
	}
	if got, want := s.Rate(), 1000.0/64; math.Abs(got-want) > 1e-9 {
		t.Fatalf("floor rate = %v, want %v", got, want)
	}
}

func TestSenderNoFeedbackTimeout(t *testing.T) {
	s := newTestSender()
	if got := s.NoFeedbackTimeout(); got != 2 {
		t.Fatalf("pre-RTT timeout = %v, want 2 s fallback", got)
	}
	s.OnFeedback(Feedback{P: 0.01, XRecv: 1e9, RTTSample: 0.1})
	want := math.Max(4*s.RTT().SRTT(), 2*1000/s.Rate())
	if got := s.NoFeedbackTimeout(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("timeout = %v, want %v", got, want)
	}
}

func TestSenderReceiveRateCap(t *testing.T) {
	s := newTestSender()
	s.OnFeedback(Feedback{P: 0.0001, XRecv: 5000, RTTSample: 0.1})
	if got := s.Rate(); got > 10000+1e-9 {
		t.Fatalf("rate %v exceeds 2·XRecv cap", got)
	}
}

func TestSenderSqrtSpacing(t *testing.T) {
	s := NewSender(DefaultSenderConfig()) // SqrtSpacing on
	// Stabilize the averages at 100 ms.
	for i := 0; i < 200; i++ {
		s.OnFeedback(Feedback{P: 0.01, XRecv: 1e9, RTTSample: 0.1})
	}
	base := 1000.0 / s.Rate()
	if got := s.PacketInterval(); math.Abs(got-base)/base > 0.01 {
		t.Fatalf("steady-state spacing %v, want ≈ base %v", got, base)
	}
	// An RTT spike stretches spacing by √(R₀)/M immediately, even
	// though the smoothed averages barely move.
	s.OnFeedback(Feedback{P: 0.01, XRecv: 1e9, RTTSample: 0.4})
	base = 1000.0 / s.Rate()
	got := s.PacketInterval()
	if got < base*1.5 {
		t.Fatalf("spacing %v did not stretch (base %v) on RTT spike", got, base)
	}
	// And an RTT dip contracts it.
	for i := 0; i < 200; i++ {
		s.OnFeedback(Feedback{P: 0.01, XRecv: 1e9, RTTSample: 0.1})
	}
	s.OnFeedback(Feedback{P: 0.01, XRecv: 1e9, RTTSample: 0.025})
	base = 1000.0 / s.Rate()
	if got := s.PacketInterval(); got > base*0.75 {
		t.Fatalf("spacing %v did not contract (base %v) on RTT dip", got, base)
	}
}

func TestSenderRateNeverBelowFloor(t *testing.T) {
	s := newTestSender()
	s.OnFeedback(Feedback{P: 1, XRecv: 1, RTTSample: 5})
	if got, floor := s.Rate(), 1000.0/64; got < floor-1e-12 {
		t.Fatalf("rate %v below floor %v", got, floor)
	}
}

// TestSenderNoSampleFirstReport hands a fresh sender a loss report that
// carries no RTT sample and no receive rate. With no round-trip time the
// equation is evaluated at R = 0, where it is +Inf; a pacer at that rate
// would re-arm its send timer +0 s ahead forever. The report must leave
// the rate finite and the packet interval positive.
func TestSenderNoSampleFirstReport(t *testing.T) {
	s := NewSender(DefaultSenderConfig())
	s.OnFeedback(Feedback{P: 0.01})
	if r := s.Rate(); math.IsInf(r, 0) || math.IsNaN(r) || r <= 0 {
		t.Fatalf("rate after a no-sample first report = %v", r)
	}
	if iv := s.PacketInterval(); !(iv > 0) || math.IsInf(iv, 0) {
		t.Fatalf("packet interval after a no-sample first report = %v", iv)
	}
}

func TestSenderConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("packet size 0 did not panic")
		}
	}()
	NewSender(SenderConfig{PacketSize: 0})
}
