package tfrc

import (
	"net"

	"tfrc/internal/core"
	"tfrc/internal/netsim"
	"tfrc/internal/wire"
)

// Throughput is the paper's Equation (1) — the PFTK TCP response
// function: the allowed sending rate in bytes/sec for segment size s
// (bytes), round-trip time rtt, retransmit timeout rto (seconds), and
// loss event rate p.
func Throughput(s, rtt, rto, p float64) float64 { return core.PFTK(s, rtt, rto, p) }

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
