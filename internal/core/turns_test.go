package core

import (
	"math"
	"testing"
)

// TestTurns pins the protocol's turns, one input per row: what the turn
// asks its driver to send and which timers to arm, in seconds from now.
// The drivers (internal/tfrcsim, internal/wire) only carry these out.
func TestTurns(t *testing.T) {
	const rtt = 0.05 // the sender's estimate, as stamped on its data
	pkt := func(seq int64, senderRTT float64) DataPacket {
		return DataPacket{Seq: seq, Size: 1000, SendTime: float64(seq) / 100, SenderRTT: senderRTT}
	}
	// receiving returns a receiver that took n in-order arrivals, one
	// every 10 ms from t = 0, through its turns.
	receiving := func(n int) *Receiver {
		r := NewReceiver(ReceiverConfig{PacketSize: 1000})
		for i := 0; i < n; i++ {
			r.OnArrival(float64(i)/100, pkt(int64(i), rtt), new(Report))
		}
		return r
	}
	// started returns a sender that sent its first packet at t = 0: its
	// next send is pending at t = 1 (one packet per second).
	started := func() *Sender {
		s := NewSender(DefaultSenderConfig())
		s.OnSend(0, 0, 1)
		return s
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }
	type out struct {
		report bool    // receiver: a report to send now; sender: the report was taken
		timer  float64 // report or no-feedback timer (re)armed this far ahead; 0 leaves it
		send   float64 // send timer armed or pulled forward this far ahead; 0 leaves it
	}
	for _, c := range []struct {
		name string
		turn func() out
		want out
	}{
		{"sender start: 1 packet/s, no-feedback 2 s before any RTT", func() out {
			s := NewSender(DefaultSenderConfig())
			gap := s.OnSend(0, 0, 1)
			return out{timer: s.NoFeedbackTimeout(), send: gap}
		}, out{timer: 2, send: 1}},
		{"send: gap stretched to minGap, then jittered", func() out {
			return out{send: started().OnSend(1, 2, 1.5)}
		}, out{send: 3}},
		{"first arrival, report timer idle: a report turn, nothing measured yet, timer armed", func() out {
			send, arm := NewReceiver(ReceiverConfig{PacketSize: 1000}).OnArrival(0, pkt(0, rtt), new(Report))
			return out{report: send, timer: arm}
		}, out{timer: rtt}},
		{"first arrival without the sender's RTT: 100 ms", func() out {
			send, arm := NewReceiver(ReceiverConfig{PacketSize: 1000}).OnArrival(0, pkt(0, 0), new(Report))
			return out{report: send, timer: arm}
		}, out{timer: 0.1}},
		{"first arrival below the 0.1 ms floor", func() out {
			send, arm := NewReceiver(ReceiverConfig{PacketSize: 1000}).OnArrival(0, pkt(0, 1e-5), new(Report))
			return out{report: send, timer: arm}
		}, out{timer: 1e-4}},
		{"in-order arrival, report timer pending", func() out {
			send, arm := receiving(3).OnArrival(0.03, pkt(3, rtt), new(Report))
			return out{report: send, timer: arm}
		}, out{}},
		{"new-loss arrival: report at once, timer re-armed", func() out {
			var rep Report
			send, arm := receiving(10).OnArrival(0.11, pkt(11, rtt), &rep) // 10 lost
			if rep.P <= 0 || rep.EchoSeq != 11 {
				t.Errorf("new-loss report %+v, want p > 0 echoing packet 11", rep)
			}
			return out{report: send, timer: arm}
		}, out{report: true, timer: rtt}},
		{"report timer, data since the last report", func() out {
			send, arm := receiving(3).OnReportTimer(0.05, new(Report))
			return out{report: send, timer: arm}
		}, out{report: true, timer: rtt}},
		{"report timer, no data since the last report", func() out {
			r := receiving(3)
			r.OnReportTimer(0.05, new(Report))
			send, arm := r.OnReportTimer(0.1, new(Report))
			return out{report: send, timer: arm}
		}, out{timer: rtt}},
		{"report taken: first sample 50 ms, no-feedback 4R, send pulled forward", func() out {
			// Rate: s/R = 20 kB/s, doubled with no loss = 40 kB/s: a
			// 25 ms gap, due well before the pending send at t = 1.
			ok, timeout, pull := started().OnReport(0.1, Report{XRecv: 1e6, EchoSendTime: 0, EchoDelay: 0.05}, 0)
			return out{report: ok, timer: timeout, send: pull}
		}, out{report: true, timer: 0.2, send: 0.025}},
		{"report taken, pending send sooner: no pull", func() out {
			ok, timeout, pull := started().OnReport(0.99, Report{XRecv: 1e6, EchoSendTime: 0.89, EchoDelay: 0.05}, 0)
			return out{report: ok, timer: timeout, send: pull}
		}, out{report: true, timer: 0.2}},
		{"report refused: echo from the future, no RTT estimate yet", func() out {
			s := started()
			ok, timeout, pull := s.OnReport(0.1, Report{P: 0.01, EchoSendTime: 0.2}, 0)
			if s.Rate() != 1000 {
				t.Errorf("refused report moved the rate to %v", s.Rate())
			}
			return out{report: ok, timer: timeout, send: pull}
		}, out{}},
		{"no-feedback expiry: rate halved, timer re-armed", func() out {
			s := started()
			timeout := s.OnNoFeedback()
			if s.Rate() != 500 {
				t.Errorf("rate after no-feedback expiry = %v, want 500", s.Rate())
			}
			return out{timer: timeout}
		}, out{timer: 2}},
	} {
		got := c.turn()
		if got.report != c.want.report || !near(got.timer, c.want.timer) || !near(got.send, c.want.send) {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
}
