package tcp

import (
	"fmt"
	"math"
	"strings"

	"tfrc/internal/cc"
)

// Variant selects the loss-recovery behavior of a sender.
type Variant int

// TCP variants, in increasing order of loss-recovery sophistication.
const (
	// Tahoe retransmits on three duplicate ACKs but always collapses to
	// slow start.
	Tahoe Variant = iota
	// Reno adds fast recovery, but halves the window once per window of
	// data and typically needs a timeout when several packets are lost
	// in one window (§3.5.1).
	Reno
	// NewReno stays in fast recovery across partial ACKs, retransmitting
	// one hole per RTT without further window reductions.
	NewReno
	// Sack uses selective-acknowledgment scoreboards to retransmit all
	// holes within one recovery episode — the flavor used for the
	// paper's headline simulations.
	Sack
)

func (v Variant) String() string {
	switch v {
	case Tahoe:
		return "tahoe"
	case Reno:
		return "reno"
	case NewReno:
		return "newreno"
	case Sack:
		return "sack"
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// MarshalText encodes the variant as its name for JSON parameter files.
func (v Variant) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// UnmarshalText accepts the names emitted by MarshalText,
// case-insensitively.
func (v *Variant) UnmarshalText(text []byte) error {
	switch strings.ToLower(string(text)) {
	case "tahoe", "0":
		*v = Tahoe
	case "reno", "1":
		*v = Reno
	case "newreno", "2":
		*v = NewReno
	case "sack", "3":
		*v = Sack
	default:
		return fmt.Errorf("unknown TCP variant %q (want tahoe, reno, newreno, or sack)", text)
	}
	return nil
}

// Config parameterizes a TCP sender.
type Config struct {
	// Variant selects loss recovery; the zero value is Tahoe.
	Variant Variant
	// CC selects the congestion-control policy — the arithmetic that
	// grows and cuts the window. The zero value is classic Reno AIMD,
	// which reproduces the pre-cc sender bit for bit. Loss-recovery
	// mechanics (scoreboards, recovery episodes, go-back-N) stay with
	// Variant; CC decides only how much window those events cost or earn.
	CC cc.Config `json:"cc,omitzero"`
	// PacketSize is the segment size in bytes (default 1000).
	PacketSize int
	// MaxWindow caps the congestion window in packets (default 10000).
	MaxWindow float64
	// Granularity is the retransmit-timer clock tick in seconds. RTO
	// values are rounded up to a multiple of it. The paper's FreeBSD
	// stacks used a conservative 500 ms tick; its simulations use finer
	// clocks. Default 0.1.
	Granularity float64
	// AggressiveRTO mimics the paper's misbehaving Solaris 2.7 sender
	// (§4.3): a severely under-estimated RTO that fires spuriously and
	// retransmits unnecessarily, hurting its own throughput.
	AggressiveRTO bool
	// SendJitter adds a uniform random processing delay in [0, SendJitter)
	// seconds before each transmission — ns-2's overhead_ parameter.
	// Deterministic simulations with identical RTTs phase-lock at
	// DropTail queues (one flow's bursts always meeting a full buffer);
	// a sub-millisecond jitter restores the incoherence real systems
	// have. Packet ordering is preserved. 0 disables.
	SendJitter float64
	// JitterSeed seeds the jitter stream (mixed with the flow id) so
	// runs remain reproducible.
	JitterSeed int64
}

// initialWindow is a new connection's congestion window in packets, as
// in the paper's era.
const initialWindow = 2

func (c *Config) fill() {
	if c.PacketSize == 0 {
		c.PacketSize = 1000
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = 10000
	}
	if c.Granularity == 0 {
		c.Granularity = 0.1
	}
}

// minRTO floors the retransmit timer of a filled config. Real stacks
// floor the RTO well above the clock tick (Linux: 200 ms) so
// queue-induced RTT swings do not fire the timer spuriously. The
// aggressive (Solaris-like) variant keeps a bare one-tick floor — that
// is precisely its pathology.
func (c *Config) minRTO() float64 {
	if c.AggressiveRTO {
		return c.Granularity
	}
	return math.Max(2*c.Granularity, 0.2)
}
