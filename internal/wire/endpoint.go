package wire

import (
	"errors"
	"math"
	"sync"
	"time"

	"tfrc/internal/core"
)

// Config parameterizes a wire sender or receiver pair.
type Config struct {
	// PacketSize is the data packet size in bytes including the TFRC
	// header (default 1000).
	PacketSize int
	// MaxRate optionally caps the sending rate in bytes/sec (application
	// limit); 0 means uncapped.
	MaxRate float64
}

func (c *Config) fill() {
	if c.PacketSize == 0 {
		c.PacketSize = 1000
	}
}

// Source supplies application payload for outgoing data packets. Fill
// writes up to len(b) bytes and returns how many; returning 0 still sends
// a padded packet (TFRC is unreliable and rate-driven, so the stream
// keeps its clock even when the encoder has nothing new — callers wanting
// true quiescence should stop the sender instead). Fill runs inside the
// sender's turn and must not call back into the Sender.
type Source interface {
	Fill(b []byte) int
}

// ZeroSource pads every packet with zeroes — a stand-in for media data.
type ZeroSource struct{}

// Fill implements Source.
func (ZeroSource) Fill(b []byte) int { return len(b) }

// Clock is all an endpoint sees of time: the current instant and one-shot
// timers. A driver calls an endpoint one turn at a time — a timer expiry
// or a datagram arrival, never two at once — and a timer that was stopped
// or re-armed before its turn came never fires the old expiry.
type Clock interface {
	Now() time.Time
	// NewTimer returns a stopped timer that runs f when it expires.
	NewTimer(f func()) Timer
}

// Timer is a restartable one-shot timer of a Clock.
type Timer interface {
	// Reset (re)arms the timer to expire d from now.
	Reset(d time.Duration)
	// Stop cancels a pending expiry; stopping an idle timer is a no-op.
	Stop()
}

// dur converts the state machines' float seconds to a Duration, rounding
// so that a microsecond wire timestamp survives the trip through core.
func dur(sec float64) time.Duration {
	return time.Duration(math.Round(sec * float64(time.Second)))
}

// secs reads t as the state machines' float seconds since epoch.
func secs(t, epoch time.Time) float64 { return t.Sub(epoch).Seconds() }

// Rejects counts the datagrams an endpoint refused, by reason.
type Rejects struct {
	NotTFRC   int64 // no magic byte, or the other packet type
	Truncated int64 // shorter than its header
	Malformed int64 // fields outside their domain (ErrMalformed), or an unusable timestamp echo
}

func (r *Rejects) count(err error) {
	switch {
	case errors.Is(err, ErrTruncated):
		r.Truncated++
	case errors.Is(err, ErrMalformed):
		r.Malformed++
	default:
		r.NotTFRC++
	}
}

// SenderStats is a snapshot of a Sender.
type SenderStats struct {
	Rate           float64       // allowed sending rate, bytes/sec
	P              float64       // loss event rate of the latest report
	SRTT           time.Duration // smoothed round-trip time; 0 before the first sample
	Sent           int64         // data packets sent
	Feedbacks      int64         // reports processed
	NoFeedbackCuts int64         // no-feedback timer expiries
	Rejected       Rejects
}

// Endpoint lifecycle: a sender paces only while running, and a stopped
// endpoint stays stopped.
const (
	senderIdle = iota
	senderRunning
	senderStopped
)

// Sender is the TFRC data sender: it runs the core sender's turns on
// encoded frames and its Clock's timers. While running it keeps exactly
// two timers armed: the next send and the no-feedback timer.
type Sender struct {
	mu sync.Mutex // one turn at a time: driver callbacks and accessors

	cfg   Config
	src   Source
	clock Clock
	epoch time.Time    // zero of the float seconds the core machine sees
	out   func([]byte) // datagram seam: one encoded frame to the driver
	os    *osLoop      // socket read loop; nil on a simulated host

	core    core.Sender
	minGap  float64 // seconds per packet at MaxRate; 0 when uncapped
	state   int
	seq     uint32
	sendT   Timer
	noFbT   Timer
	buf     []byte
	payload []byte

	lastP     float64
	sent      int64
	feedbacks int64
	noFbCuts  int64
	rejected  Rejects
}

func newSender(src Source, cfg Config) *Sender {
	cfg.fill()
	if src == nil {
		src = ZeroSource{}
	}
	s := &Sender{
		cfg:     cfg,
		src:     src,
		buf:     make([]byte, 0, cfg.PacketSize),
		payload: make([]byte, cfg.PacketSize-dataHeaderLen),
	}
	if cfg.MaxRate > 0 {
		s.minGap = float64(cfg.PacketSize) / cfg.MaxRate
	}
	sc := core.DefaultSenderConfig() // the paper's sender at this packet size
	sc.PacketSize = cfg.PacketSize
	s.core.Init(sc)
	return s
}

// attach binds the sender to its driver.
func (s *Sender) attach(c Clock, out func([]byte)) {
	s.clock, s.out = c, out
	s.epoch = c.Now()
	s.sendT = c.NewTimer(s.onSendTimer)
	s.noFbT = c.NewTimer(s.onNoFeedback)
}

// Run starts the sender. Over a PacketConn it then serves the socket and
// blocks until Stop is called or the connection fails persistently; on a
// simulated host it returns at once and the scheduler drives the sender.
func (s *Sender) Run() {
	s.mu.Lock()
	if s.state == senderIdle {
		s.state = senderRunning
		s.onSendTimer()
		s.noFbT.Reset(dur(s.core.NoFeedbackTimeout()))
	}
	s.mu.Unlock()
	if s.os != nil {
		s.os.serve(&s.mu, s.onDatagram)
		s.Stop()
	}
}

// Stop halts the sender permanently: nothing is sent and no timer is
// pending afterwards. The connection is not closed (the caller owns it).
func (s *Sender) Stop() {
	s.mu.Lock()
	s.state = senderStopped
	s.sendT.Stop()
	s.noFbT.Stop()
	s.mu.Unlock()
	if s.os != nil {
		s.os.stop()
	}
}

// Rate returns the current allowed sending rate in bytes/sec.
func (s *Sender) Rate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Rate()
}

// Stats returns a snapshot of the sender's state and counters.
func (s *Sender) Stats() SenderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SenderStats{
		Rate:           s.core.Rate(),
		P:              s.lastP,
		SRTT:           dur(s.core.RTT().SRTT()),
		Sent:           s.sent,
		Feedbacks:      s.feedbacks,
		NoFeedbackCuts: s.noFbCuts,
		Rejected:       s.rejected,
	}
}

func (s *Sender) onSendTimer() {
	if s.state != senderRunning {
		return
	}
	now := s.clock.Now()
	hdr := DataHeader{Seq: s.seq, SendTime: now, SenderRTT: dur(s.core.RTT().SRTT())}
	s.seq++
	s.sent++
	n := s.src.Fill(s.payload)
	s.buf = AppendData(s.buf, hdr, s.payload[:n])
	s.out(s.buf)
	s.sendT.Reset(dur(s.core.OnSend(secs(now, s.epoch), s.minGap, 1)))
}

func (s *Sender) onNoFeedback() {
	if s.state != senderRunning {
		return
	}
	s.noFbCuts++
	s.noFbT.Reset(dur(s.core.OnNoFeedback()))
}

// onDatagram takes one arriving datagram: a receiver report, or
// something to reject.
func (s *Sender) onDatagram(b []byte) {
	if s.state != senderRunning {
		return
	}
	fb, err := ParseFeedback(b)
	if err != nil {
		s.rejected.count(err)
		return
	}
	// The echo is a wall-clock reading, while now and the epoch may also
	// carry monotonic ones (the OS driver's do): measured from the epoch,
	// the echo would be off by every wall-clock step since attach. It is
	// measured back from now instead, in the wall clock's own frame.
	now := s.clock.Now()
	nowS := secs(now, s.epoch)
	ok, timeout, pull := s.core.OnReport(nowS, core.Report{
		P:            fb.LossEventRate,
		XRecv:        fb.RecvRate,
		EchoSeq:      int64(fb.EchoSeq),
		EchoSendTime: nowS - now.Sub(fb.EchoSendTime).Seconds(),
		EchoDelay:    fb.EchoDelay.Seconds(),
	}, s.minGap)
	if !ok {
		// An echo from the future carries no RTT sample, and before the
		// first one core has no round-trip time to work with.
		s.rejected.Malformed++
		return
	}
	s.feedbacks++
	s.lastP = fb.LossEventRate
	s.noFbT.Reset(dur(timeout))
	if pull > 0 {
		s.sendT.Reset(dur(pull))
	}
}

// ReceiverStats is a snapshot of a Receiver.
type ReceiverStats struct {
	Rate     float64       // receive rate of the latest report, bytes/sec
	P        float64       // loss event rate estimate
	SRTT     time.Duration // the sender's estimate, as stamped on its data
	Received int64         // data packets received
	Reports  int64         // reports sent
	Rejected Rejects
}

// Receiver is the TFRC data receiver: it runs the core receiver's turns
// on encoded frames and its Clock's report timer, returning a report once
// per sender round-trip time and at once at the start of a loss event.
type Receiver struct {
	mu sync.Mutex // one turn at a time: driver callbacks and accessors

	cfg   Config
	clock Clock
	out   func([]byte) // datagram seam: one encoded report to the driver
	os    *osLoop      // socket read loop; nil on a simulated host

	// OnData, if set, observes every delivered payload in arrival order.
	// It runs inside the receiver's turn: the payload is only valid
	// during the call, which must not call back into the Receiver.
	OnData func(seq uint32, payload []byte)

	core    core.Receiver
	epoch   time.Time // zero of the float seconds the core machine sees
	stopped bool
	fbT     Timer
	fbBuf   []byte

	lastX    float64
	received int64
	reports  int64
	rejected Rejects
}

func newReceiver(cfg Config) *Receiver {
	cfg.fill()
	r := &Receiver{cfg: cfg, fbBuf: make([]byte, 0, feedbackPacketLen)}
	r.core.Init(core.ReceiverConfig{PacketSize: cfg.PacketSize})
	return r
}

// attach binds the receiver to its driver.
func (r *Receiver) attach(c Clock, out func([]byte)) {
	r.clock, r.out = c, out
	r.epoch = c.Now()
	r.fbT = c.NewTimer(r.onFeedbackTimer)
}

// Run serves the receiver's socket until Stop is called or the connection
// fails persistently. On a simulated host there is nothing to serve —
// arrivals come from the scheduler — and Run returns at once.
func (r *Receiver) Run() {
	if r.os != nil {
		r.os.serve(&r.mu, r.onDatagram)
		r.Stop()
	}
}

// Stop halts the receiver permanently: arrivals are ignored and no
// report is sent afterwards.
func (r *Receiver) Stop() {
	r.mu.Lock()
	r.stopped = true
	r.fbT.Stop()
	r.mu.Unlock()
	if r.os != nil {
		r.os.stop()
	}
}

// Stats returns a snapshot of the receiver's state and counters. Taking
// one does not change the receiver.
func (r *Receiver) Stats() ReceiverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReceiverStats{
		Rate:     r.lastX,
		P:        r.core.P(),
		SRTT:     dur(r.core.SenderRTT()),
		Received: r.received,
		Reports:  r.reports,
		Rejected: r.rejected,
	}
}

// onDatagram takes one arriving datagram: a data packet, or something to
// reject.
func (r *Receiver) onDatagram(b []byte) {
	if r.stopped {
		return
	}
	hdr, payload, err := ParseData(b)
	if err != nil {
		r.rejected.count(err)
		return
	}
	r.received++
	var rep core.Report
	send, arm := r.core.OnArrival(secs(r.clock.Now(), r.epoch), core.DataPacket{
		Seq:       int64(hdr.Seq),
		Size:      len(b),
		SendTime:  secs(hdr.SendTime, r.epoch), // wall clock both ways: core only echoes it back through act
		SenderRTT: hdr.SenderRTT.Seconds(),
	}, &rep)
	if r.OnData != nil {
		r.OnData(hdr.Seq, payload)
	}
	r.act(&rep, send, arm)
}

func (r *Receiver) onFeedbackTimer() {
	if !r.stopped {
		var rep core.Report
		send, arm := r.core.OnReportTimer(secs(r.clock.Now(), r.epoch), &rep)
		r.act(&rep, send, arm)
	}
}

// act does what a receiver turn asks: send the report, arm the timer.
func (r *Receiver) act(rep *core.Report, send bool, arm float64) {
	if send {
		r.reports++
		r.lastX = rep.XRecv
		r.fbBuf = AppendFeedback(r.fbBuf, FeedbackPacket{
			LossEventRate: rep.P,
			RecvRate:      rep.XRecv,
			EchoSeq:       uint32(rep.EchoSeq),
			EchoSendTime:  r.epoch.Add(dur(rep.EchoSendTime)),
			EchoDelay:     dur(rep.EchoDelay),
		})
		r.out(r.fbBuf)
	}
	if arm > 0 {
		r.fbT.Reset(dur(arm))
	}
}
