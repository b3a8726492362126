package tfrc

import (
	"net"

	"tfrc/internal/core"
	"tfrc/internal/netsim"
	"tfrc/internal/wire"
)

// Core algorithm surface. These are aliases to the implementation types,
// so values interoperate with the simulator and wire layers directly.
type (
	// ThroughputEq is a TCP response function: allowed rate in bytes/sec
	// from segment size, RTT, retransmit timeout, and loss event rate.
	ThroughputEq = core.ThroughputEq
	// SenderConfig tunes the rate-control state machine.
	SenderConfig = core.SenderConfig
	// Sender is the TFRC sender state machine (transport-agnostic).
	Sender = core.Sender
	// Feedback is one receiver report fed to Sender.OnFeedback.
	Feedback = core.Feedback
	// ReceiverConfig tunes the receiver state machine.
	ReceiverConfig = core.ReceiverConfig
	// Receiver is the TFRC receiver state machine.
	Receiver = core.Receiver
	// DataPacket describes an arriving data packet to Receiver.OnData.
	DataPacket = core.DataPacket
	// Report is the feedback a Receiver emits once per RTT.
	Report = core.Report
	// LossHistoryConfig tunes the Average Loss Interval estimator.
	LossHistoryConfig = core.LossHistoryConfig
	// LossHistory is the paper's Average Loss Interval estimator.
	LossHistory = core.LossHistory
	// RTTEstimator smooths RTT samples and maintains the √RTT average
	// used by the inter-packet-spacing adjustment.
	RTTEstimator = core.RTTEstimator
)

// Throughput is the paper's Equation (1) — the PFTK TCP response
// function: the allowed sending rate in bytes/sec for segment size s
// (bytes), round-trip time rtt, retransmit timeout rto (seconds), and
// loss event rate p.
func Throughput(s, rtt, rto, p float64) float64 { return core.PFTK(s, rtt, rto, p) }

// SimpleThroughput is the deterministic response function T = s·√1.5/(R·√p)
// used by the paper's analysis (Appendix A).
func SimpleThroughput(s, rtt, p float64) float64 { return core.Simple(s, rtt, 0, p) }

// InverseLossRate inverts a response function: the loss event rate at
// which eq yields the target rate (bytes/sec). TFRC uses it to seed the
// loss history when slow start ends.
func InverseLossRate(eq ThroughputEq, s, rtt, rto, target float64) float64 {
	return core.InverseP(eq, s, rtt, rto, target)
}

// NewSender returns a TFRC sender state machine. Drive it with feedback
// reports and no-feedback expiries; read back Rate and PacketInterval.
func NewSender(cfg SenderConfig) *Sender { return core.NewSender(cfg) }

// DefaultSenderConfig is the configuration evaluated in the paper.
func DefaultSenderConfig() SenderConfig { return core.DefaultSenderConfig() }

// NewReceiver returns a TFRC receiver state machine. Feed it data-packet
// arrivals; collect reports with MakeReport once per RTT.
func NewReceiver(cfg ReceiverConfig) *Receiver { return core.NewReceiver(cfg) }

// NewLossHistory returns the Average Loss Interval estimator.
func NewLossHistory(cfg LossHistoryConfig) *LossHistory { return core.NewLossHistory(cfg) }

// DefaultLossHistory is the paper's estimator configuration: eight
// intervals, decreasing weights, history discounting on.
func DefaultLossHistory() LossHistoryConfig { return core.DefaultLossHistory() }

// NewRTTEstimator returns an EWMA RTT estimator placing weight q on each
// new sample.
func NewRTTEstimator(q float64) *RTTEstimator { return core.NewRTTEstimator(q) }

// Wire layer.
type (
	// WireConfig parameterizes wire endpoints.
	WireConfig = wire.Config
	// WireSender streams TFRC-paced datagrams.
	WireSender = wire.Sender
	// WireReceiver consumes the stream and returns feedback.
	WireReceiver = wire.Receiver
	// WireSenderStats is the snapshot WireSender.Stats returns.
	WireSenderStats = wire.SenderStats
	// WireReceiverStats is the snapshot WireReceiver.Stats returns.
	WireReceiverStats = wire.ReceiverStats
	// PayloadSource supplies application bytes for outgoing packets.
	PayloadSource = wire.Source
)

// NewWireSender creates a wire sender streaming to dst over conn. src may
// be nil for zero-padded packets.
func NewWireSender(conn net.PacketConn, dst net.Addr, src PayloadSource, cfg WireConfig) *WireSender {
	return wire.NewSender(conn, dst, src, cfg)
}

// NewWireReceiver creates a wire receiver on conn.
func NewWireReceiver(conn net.PacketConn, cfg WireConfig) *WireReceiver {
	return wire.NewReceiver(conn, cfg)
}

// NewSimWirePair places the same two endpoints on hosts src and dst of a
// built scenario.Topology instead of on sockets: every encoded datagram
// crosses the simulated links in virtual time, so fault schedules (rate
// and delay steps among them) shape the path — a deterministic,
// sleep-free substitute for a Dummynet testbed. id is the connection's port on both hosts and
// its flow ID at link monitors. Start the sender from a scheduler event
// (sched.At(0, send.Run)) and advance the scheduler to run.
//
//tfrclint:allow importboundary the topology is named publicly as scenario.Topology
func NewSimWirePair(t *netsim.Topology, src, dst string, id int, source PayloadSource, cfg WireConfig) (*WireSender, *WireReceiver) {
	return wire.NewSimPair(t, src, dst, id, source, cfg)
}
