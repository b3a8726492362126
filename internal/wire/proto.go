// Package wire is the real-transport TFRC implementation — the counterpart
// of the paper's publicly released user-space implementation: a compact
// binary wire format for data and feedback packets, and a Sender and a
// Receiver that drive the internal/core agents' turns — the same turns
// the simulator's agents (internal/tfrcsim) drive — over it.
//
// An endpoint keeps only what is the transport's: the codec, the
// application's payload Source and MaxRate, a mutex and its lifecycle,
// and Stats. It sees only a Clock (the current instant, one-shot timers)
// and a datagram seam (send these bytes / these bytes arrived); sockets
// and clocks live in two thin drivers. NewSender and NewReceiver put an endpoint on a net.PacketConn
// and the wall clock (UDP in practice). NewSimPair binds a connection to
// two named hosts of a netsim topology and carries every encoded frame
// over the simulated links on the sim.Scheduler clock, so tests,
// examples and fault schedules exercise the exact codec and timer paths
// deterministically, without sleeping, root privileges or real WANs.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Packet type identifiers on the wire.
const (
	typeData     = 0x01
	typeFeedback = 0x02
)

// protocol magic prevents misparsing stray datagrams.
const magic = 0x54 // 'T'

// Header sizes in bytes.
const (
	dataHeaderLen     = 2 + 4 + 8 + 4
	feedbackPacketLen = 2 + 8 + 8 + 4 + 8 + 4
)

// DataHeader is the header of a TFRC data packet: sequence number, a
// sender timestamp, and the sender's current RTT estimate, which the
// receiver needs to group losses into loss events (§3.5.1).
type DataHeader struct {
	Seq       uint32
	SendTime  time.Time
	SenderRTT time.Duration
}

// ErrNotTFRC reports a datagram that is not a TFRC packet.
var ErrNotTFRC = errors.New("wire: not a TFRC packet")

// ErrTruncated reports a datagram too short for its declared type.
var ErrTruncated = errors.New("wire: truncated packet")

// ErrMalformed reports a well-framed packet whose fields no receiver can
// have produced: a loss event rate outside [0, 1] or a receive rate that
// is negative, infinite or NaN.
var ErrMalformed = errors.New("wire: malformed packet")

// AppendData encodes hdr and payload into buf (reusing its storage) and
// returns the wire bytes.
func AppendData(buf []byte, hdr DataHeader, payload []byte) []byte {
	buf = buf[:0]
	buf = append(buf, magic, typeData)
	buf = binary.BigEndian.AppendUint32(buf, hdr.Seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(hdr.SendTime.UnixMicro()))
	buf = binary.BigEndian.AppendUint32(buf, uint32(hdr.SenderRTT.Microseconds()))
	return append(buf, payload...)
}

// ParseData decodes a data packet, returning its header and payload. The
// payload aliases b.
func ParseData(b []byte) (DataHeader, []byte, error) {
	if len(b) < 2 || b[0] != magic {
		return DataHeader{}, nil, ErrNotTFRC
	}
	if b[1] != typeData {
		return DataHeader{}, nil, fmt.Errorf("%w: type %#x", ErrNotTFRC, b[1])
	}
	if len(b) < dataHeaderLen {
		return DataHeader{}, nil, ErrTruncated
	}
	hdr := DataHeader{
		Seq:       binary.BigEndian.Uint32(b[2:]),
		SendTime:  time.UnixMicro(int64(binary.BigEndian.Uint64(b[6:]))),
		SenderRTT: time.Duration(binary.BigEndian.Uint32(b[14:])) * time.Microsecond,
	}
	return hdr, b[dataHeaderLen:], nil
}

// FeedbackPacket is the receiver report (§3.1): loss event rate, receive
// rate, and the timestamp echo for RTT measurement.
type FeedbackPacket struct {
	LossEventRate float64
	RecvRate      float64 // bytes/sec
	EchoSeq       uint32
	EchoSendTime  time.Time
	EchoDelay     time.Duration
}

// AppendFeedback encodes fb into buf.
func AppendFeedback(buf []byte, fb FeedbackPacket) []byte {
	buf = buf[:0]
	buf = append(buf, magic, typeFeedback)
	buf = binary.BigEndian.AppendUint64(buf, floatBits(fb.LossEventRate))
	buf = binary.BigEndian.AppendUint64(buf, floatBits(fb.RecvRate))
	buf = binary.BigEndian.AppendUint32(buf, fb.EchoSeq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(fb.EchoSendTime.UnixMicro()))
	buf = binary.BigEndian.AppendUint32(buf, uint32(fb.EchoDelay.Microseconds()))
	return buf
}

// ParseFeedback decodes a feedback packet. The two rates arrive as raw
// float bits and steer the sender's pacing, so values outside their
// domain are rejected here rather than handed to the rate equation.
func ParseFeedback(b []byte) (FeedbackPacket, error) {
	if len(b) < 2 || b[0] != magic {
		return FeedbackPacket{}, ErrNotTFRC
	}
	if b[1] != typeFeedback {
		return FeedbackPacket{}, fmt.Errorf("%w: type %#x", ErrNotTFRC, b[1])
	}
	if len(b) < feedbackPacketLen {
		return FeedbackPacket{}, ErrTruncated
	}
	fb := FeedbackPacket{
		LossEventRate: floatFromBits(binary.BigEndian.Uint64(b[2:])),
		RecvRate:      floatFromBits(binary.BigEndian.Uint64(b[10:])),
		EchoSeq:       binary.BigEndian.Uint32(b[18:]),
		EchoSendTime:  time.UnixMicro(int64(binary.BigEndian.Uint64(b[22:]))),
		EchoDelay:     time.Duration(binary.BigEndian.Uint32(b[30:])) * time.Microsecond,
	}
	// Written so that NaN fails both range checks.
	if !(fb.LossEventRate >= 0 && fb.LossEventRate <= 1) || !(fb.RecvRate >= 0 && fb.RecvRate <= math.MaxFloat64) {
		return FeedbackPacket{}, ErrMalformed
	}
	return fb, nil
}

// IsData reports whether the datagram is a TFRC data packet.
func IsData(b []byte) bool {
	return len(b) >= 2 && b[0] == magic && b[1] == typeData
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func floatFromBits(u uint64) float64 { return math.Float64frombits(u) }
