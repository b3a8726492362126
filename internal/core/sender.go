package core

import "math"

// DecreasePolicy selects how the sender responds when the control
// equation's rate T falls below the current transmission rate (§3.2). The
// paper evaluates three and adopts decrease-to-T.
type DecreasePolicy int

// Decrease policies.
const (
	// DecreaseToT sets the rate directly to T — the paper's choice: the
	// loss-measurement damping makes further damping unnecessary.
	DecreaseToT DecreasePolicy = iota
	// DecreaseToward halves the distance to T each feedback. Rejected:
	// extra damping only confuses the damping already present.
	DecreaseToward
	// DecreaseExponential halves the rate until it is below T. Rejected:
	// the undershoot causes oscillation.
	DecreaseExponential
)

// SenderConfig parameterizes a TFRC sender.
type SenderConfig struct {
	// PacketSize is the segment size s in bytes (paper default: 1000).
	PacketSize int
	// Eq is the control equation; nil means PFTK (the paper's Eq. 1).
	// Functions cannot ride through JSON, so serialized configs always
	// mean the default equation.
	Eq ThroughputEq `json:"-"`
	// RTTWeight is the EWMA weight on new RTT samples; 0 means 0.1.
	RTTWeight float64
	// SqrtSpacing enables the §3.4 inter-packet-spacing adjustment
	// t = s·√R₀/(T·M), trading a little short-term rate variation for
	// damped queueing oscillations.
	SqrtSpacing bool
	// Decrease selects the response when the allowed rate drops.
	Decrease DecreasePolicy
	// RecvRateCap caps the allowed rate at twice the rate the receiver
	// reports receiving, limiting overshoot exactly as in slow start.
	RecvRateCap bool
}

// MaxBackoffInterval bounds how low the no-feedback timer can push the
// rate: at least one packet per this many seconds (RFC 3448's t_mbi).
const MaxBackoffInterval = 64

// DefaultSenderConfig returns the configuration used by the paper's
// simulations.
func DefaultSenderConfig() SenderConfig {
	return SenderConfig{
		PacketSize:  1000,
		Eq:          PFTK,
		RTTWeight:   0.1,
		SqrtSpacing: true,
		Decrease:    DecreaseToT,
		RecvRateCap: true,
	}
}

// Sender is the TFRC sender state machine (§3.2). It owns no transport
// and no timers: the caller feeds it feedback reports and no-feedback
// expiries, and reads back the allowed rate, the spacing of the next
// packet, and the timeout to arm. All times are in seconds on the
// caller's clock.
type Sender struct {
	cfg SenderConfig
	rtt RTTEstimator // embedded by value so pooled senders carry no heap graph

	rate      float64 // allowed transmission rate X, bytes/sec
	slowStart bool
	started   bool
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
	if cfg.Eq == nil {
		cfg.Eq = PFTK
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
// the new allowed rate in bytes/sec.
func (s *Sender) OnFeedback(fb Feedback) float64 {
	if fb.RTTSample > 0 {
		first := !s.rtt.Valid()
		s.rtt.OnSample(fb.RTTSample)
		if first && s.slowStart {
			// RTT now known: start slow start at one packet per RTT.
			s.rate = math.Max(s.rate, float64(s.cfg.PacketSize)/s.rtt.SRTT())
		}
	}
	if fb.P <= 0 {
		// No reported loss: the throughput equation is undefined at
		// p = 0, so double per feedback instead, never beyond twice the
		// rate that actually reached the receiver — the rate-based
		// analogue of TCP's ACK clock limit. During slow start this is
		// §3.4.1; after it (a loss history that drained back to zero,
		// or an anomalous report) the same doubling keeps the rate
		// finite and receiver-clocked instead of evaluating the
		// equation at its p→0 singularity.
		next := 2 * s.rate
		if cap := 2 * fb.XRecv; fb.XRecv > 0 && cap < next {
			next = cap
		}
		s.rate = math.Max(next, s.minRate())
		s.started = true
		return s.rate
	}
	s.slowStart = false
	target := s.cfg.Eq(float64(s.cfg.PacketSize), s.rtt.SRTT(), s.rtt.RTO(), fb.P)
	if s.cfg.RecvRateCap && fb.XRecv > 0 {
		target = math.Min(target, 2*fb.XRecv)
	}
	switch {
	case target >= s.rate:
		s.rate = target
	default:
		switch s.cfg.Decrease {
		case DecreaseToT:
			s.rate = target
		case DecreaseToward:
			s.rate = (s.rate + target) / 2
		case DecreaseExponential:
			s.rate = s.rate / 2
		}
	}
	s.rate = math.Max(s.rate, s.minRate())
	s.started = true
	return s.rate
}

// OnNoFeedback handles expiry of the no-feedback timer: several
// round-trip times without a report mean the sender must cut its rate,
// and ultimately stop (§3). Each expiry halves the rate down to one
// packet per MaxBackoffInterval.
func (s *Sender) OnNoFeedback() float64 {
	s.rate = math.Max(s.rate/2, s.minRate())
	return s.rate
}

// OnIdle implements the paper's §7 plan for quiescent senders — a
// rate-based analogue of TCP Congestion Window Validation [HPF99]: an
// application that stopped sending must not bank its old authorization
// indefinitely. The previously allowed rate decays by half per
// no-feedback interval of idleness, but never below the restart rate of
// one packet per RTT, from which normal slow start resumes.
func (s *Sender) OnIdle(idle float64) float64 {
	if idle <= 0 {
		return s.rate
	}
	interval := s.NoFeedbackTimeout()
	halvings := int(idle / interval)
	if halvings <= 0 {
		return s.rate
	}
	if halvings > 64 {
		halvings = 64
	}
	restart := float64(s.cfg.PacketSize)
	if s.rtt.Valid() {
		restart = float64(s.cfg.PacketSize) / s.rtt.SRTT()
	}
	decayed := s.rate / math.Pow(2, float64(halvings))
	s.rate = math.Max(decayed, math.Min(restart, s.rate))
	// No state flip is needed for the ramp back up: with the receive-
	// rate cap in force, post-idle feedback can at most double the rate
	// per RTT until the old operating point is re-proven.
	return s.rate
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
