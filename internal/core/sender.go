package core

import "math"

// SenderConfig parameterizes a TFRC sender. The rate rule itself is
// fixed, as the paper fixes it in §3: the allowed rate is the control
// equation's (Eq. 1, PFTK) at the reported loss event rate, capped at
// twice the rate the receiver reports receiving, and falls straight to
// that value when it is below the current rate — §3.2 tries halving the
// distance to it and exponential decrease and rejects both. RFC 3448
// §4.3 writes the rule as X = max(min(X_calc, 2·X_recv), s/t_mbi).
type SenderConfig struct {
	// PacketSize is the segment size s in bytes (paper default: 1000).
	PacketSize int
	// RTTWeight is the EWMA weight on new RTT samples; 0 means 0.1.
	RTTWeight float64
	// SqrtSpacing enables the §3.4 inter-packet-spacing adjustment
	// t = s·√R₀/(T·M), trading a little short-term rate variation for
	// damped queueing oscillations.
	SqrtSpacing bool
}

// MaxBackoffInterval bounds how low the no-feedback timer can push the
// rate: at least one packet per this many seconds (RFC 3448's t_mbi).
const MaxBackoffInterval = 64

// DefaultSenderConfig returns the configuration used by the paper's
// simulations.
func DefaultSenderConfig() SenderConfig {
	return SenderConfig{
		PacketSize:  1000,
		RTTWeight:   0.1,
		SqrtSpacing: true,
	}
}

// Sender is the TFRC sender state machine (§3.2). It owns no transport
// and no timers: its driver takes one turn per event — OnSend, OnReport,
// OnNoFeedback — and arms the timers each returns; it starts by sending
// and arming the no-feedback timer NoFeedbackTimeout() ahead. All times
// are in seconds on the driver's clock.
type Sender struct {
	cfg SenderConfig
	rtt RTTEstimator // embedded by value so pooled senders carry no heap graph

	rate      float64 // allowed transmission rate X, bytes/sec
	slowStart bool
	nextSend  float64 // deadline of the pending send; 0 before the first OnSend
}

// NewSender returns a sender in its initial state: one packet per second
// until the first feedback establishes the RTT, then rate-doubling slow
// start until the first loss report.
func NewSender(cfg SenderConfig) *Sender {
	s := new(Sender)
	s.Init(cfg)
	return s
}

// Init resets a sender in place to its initial state — the
// re-initialization path for senders embedded by value in pooled
// simulator agents.
func (s *Sender) Init(cfg SenderConfig) {
	if cfg.PacketSize <= 0 {
		panic("core: sender needs a positive packet size")
	}
	if cfg.RTTWeight == 0 {
		cfg.RTTWeight = 0.1
	}
	*s = Sender{cfg: cfg, slowStart: true}
	s.rtt.Init(cfg.RTTWeight)
	s.rate = float64(cfg.PacketSize) // 1 packet/sec until the RTT is known
}

// Feedback is one receiver report (§3.1): the measured loss event rate,
// the rate at which data reached the receiver over the last RTT, and an
// RTT sample derived from the echoed timestamp.
type Feedback struct {
	P         float64 // loss event rate
	XRecv     float64 // receive rate, bytes/sec
	RTTSample float64 // seconds; ≤ 0 if this report carries no sample
}

// OnFeedback folds a receiver report into the sender state and returns
// the allowed rate in bytes/sec. A report without an RTT sample reaching
// a sender with no estimate yet is refused and leaves the rate as it
// was: the equation has no round-trip time to work with.
func (s *Sender) OnFeedback(fb Feedback) float64 {
	if fb.RTTSample > 0 {
		first := !s.rtt.Valid()
		s.rtt.OnSample(fb.RTTSample)
		if first && s.slowStart {
			// RTT now known: start slow start at one packet per RTT.
			s.rate = math.Max(s.rate, float64(s.cfg.PacketSize)/s.rtt.SRTT())
		}
	} else if !s.rtt.Valid() {
		return s.rate
	}
	// Twice the rate that actually reached the receiver bounds the rate
	// in every branch — the rate-based analogue of TCP's ACK clock; a
	// report that measured no receive rate sets no bound.
	recvCap := math.Inf(1)
	if fb.XRecv > 0 {
		recvCap = 2 * fb.XRecv
	}
	if fb.P <= 0 {
		// No reported loss: the throughput equation is undefined at
		// p = 0, so double per feedback instead. During slow start this
		// is §3.4.1; after it (a loss history that drained back to
		// zero, or an anomalous report) the same doubling keeps the rate
		// finite and receiver-clocked instead of evaluating the equation
		// at its p→0 singularity.
		s.rate = math.Max(math.Min(2*s.rate, recvCap), s.minRate())
		return s.rate
	}
	s.slowStart = false
	x := PFTK(float64(s.cfg.PacketSize), s.rtt.SRTT(), s.rtt.RTO(), fb.P)
	s.rate = math.Max(math.Min(x, recvCap), s.minRate())
	return s.rate
}

// The sender's turns return how many seconds from now to (re)arm which
// timer. The driver's own pacing rides in two arguments: every gap is at
// least minGap (an application rate limit; 0 for none), and a send's gap
// is then scaled by jitter (1 for none).

// OnSend is the sender's turn right after it sent a data packet (stamped
// with RTT().SRTT(), 0 before the first sample): arm the send timer gap
// seconds ahead.
func (s *Sender) OnSend(now, minGap, jitter float64) (gap float64) {
	gap = max(s.PacketInterval(), minGap) * jitter
	s.nextSend = now + gap
	return gap
}

// OnReport is the sender's turn at a receiver report: it takes the RTT
// sample from the timestamp echo and folds the report in (OnFeedback).
// ok is false if the report was refused for want of any RTT; otherwise
// re-arm the no-feedback timer timeout seconds ahead, and if pull > 0
// the new rate's next packet is due before the pending send: pull the
// send timer forward to pull seconds ahead.
func (s *Sender) OnReport(now float64, rep Report, minGap float64) (ok bool, timeout, pull float64) {
	s.OnFeedback(Feedback{P: rep.P, XRecv: rep.XRecv, RTTSample: now - rep.EchoSendTime - rep.EchoDelay})
	if !s.rtt.Valid() {
		return false, 0, 0 // refused: no sample, and no estimate to fall back on
	}
	gap := max(s.PacketInterval(), minGap)
	if next := now + gap; next < s.nextSend {
		s.nextSend = next
		pull = gap
	}
	return true, s.NoFeedbackTimeout(), pull
}

// OnNoFeedback is the sender's turn at the no-feedback timer's expiry:
// several round-trip times without a report mean the sender must cut
// its rate, and ultimately stop (§3). Each expiry halves the rate down to
// one packet per MaxBackoffInterval; re-arm the timer timeout seconds
// ahead.
func (s *Sender) OnNoFeedback() (timeout float64) {
	s.rate = math.Max(s.rate/2, s.minRate())
	return s.NoFeedbackTimeout()
}

func (s *Sender) minRate() float64 {
	return float64(s.cfg.PacketSize) / MaxBackoffInterval
}

// Rate returns the allowed transmission rate X in bytes/sec.
func (s *Sender) Rate() float64 { return s.rate }

// InSlowStart reports whether the sender is still in rate-doubling slow
// start (no loss reported yet).
func (s *Sender) InSlowStart() bool { return s.slowStart }

// RTT exposes the sender's estimator for observers (tests, traces) and
// for stamping the current RTT estimate onto data packets, which the
// receiver needs for loss-event aggregation.
func (s *Sender) RTT() *RTTEstimator { return &s.rtt }

// PacketInterval returns the spacing to the next packet in seconds. With
// SqrtSpacing it applies the §3.4 adjustment t = s·√R₀/(T·M): the spacing
// contracts when the latest RTT sample is below its average and stretches
// when above, giving delay-based congestion avoidance at reduced gain.
func (s *Sender) PacketInterval() float64 {
	base := float64(s.cfg.PacketSize) / s.rate
	if !s.cfg.SqrtSpacing || !s.rtt.Valid() {
		return base
	}
	m := s.rtt.SqrtMean()
	if m <= 0 {
		return base
	}
	return base * math.Sqrt(s.rtt.Last()) / m
}

// NoFeedbackTimeout returns the interval to arm the no-feedback timer
// for: max(4·SRTT, 2·s/X), falling back to 2 s before the RTT is known.
func (s *Sender) NoFeedbackTimeout() float64 {
	if !s.rtt.Valid() {
		return 2
	}
	return math.Max(4*s.rtt.SRTT(), 2*float64(s.cfg.PacketSize)/s.rate)
}

// PacketSize returns the configured segment size in bytes.
func (s *Sender) PacketSize() int { return s.cfg.PacketSize }
