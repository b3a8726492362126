package core

import "math"

// ReceiverConfig parameterizes a TFRC receiver.
type ReceiverConfig struct {
	// PacketSize is the nominal segment size s in bytes, used only for
	// seeding the loss history via the inverse of the sender's equation
	// (PFTK).
	PacketSize int
	// OnLossInterval, when set, observes every closed loss interval
	// (packets) right after it enters the history — the Figure 18
	// experiment logs them. Only settable in code.
	OnLossInterval func(packets float64) `json:"-"`
}

// Report is the feedback a receiver sends at least once per round-trip
// time (§3.1, §3.3): the loss event rate p, the receive rate over the
// last feedback interval, and timestamp-echo fields from which the sender
// derives an RTT sample.
type Report struct {
	P            float64 // loss event rate
	XRecv        float64 // bytes/sec received over the last interval
	EchoSeq      int64   // newest data sequence received
	EchoSendTime float64 // sender timestamp of that packet
	EchoDelay    float64 // receiver residence time of that packet
}

// Receiver is the TFRC receiver state machine (§3.3): it detects losses
// from sequence gaps, aggregates losses within one round-trip time into
// loss events, maintains the loss-interval history, measures the receive
// rate, and builds feedback reports. Its driver owns the transport and
// the report timer and takes one turn per event — OnArrival,
// OnReportTimer. Reading the receiver never changes it: only OnData and
// MakeReport do, and the turns through them.
type Receiver struct {
	cfg ReceiverConfig
	// hist is the paper's Average Loss Interval history, embedded by
	// value with its interval buffers, so a receiver needs no allocation
	// of its own.
	hist LossHistory

	haveData    bool
	maxSeq      int64
	maxSendTime float64 // sender timestamp of newest packet
	maxArrival  float64 // our arrival time of newest packet
	senderRTT   float64 // sender's RTT estimate stamped on data packets

	haveEvent      bool
	eventStartSeq  int64
	eventStartTime float64

	fbBytes    float64 // bytes since the last report
	fbStart    float64 // time the current feedback interval began
	lastXRecv  float64
	lossSeeded bool
}

// NewReceiver returns a receiver with no data received yet.
func NewReceiver(cfg ReceiverConfig) *Receiver {
	r := new(Receiver)
	r.Init(cfg)
	return r
}

// Init resets a receiver in place to its initial state — the
// re-initialization path for receivers embedded by value in pooled
// simulator agents. It allocates nothing: the loss history's buffers
// are its own.
func (r *Receiver) Init(cfg ReceiverConfig) {
	if cfg.PacketSize <= 0 {
		panic("core: receiver needs a positive packet size")
	}
	*r = Receiver{cfg: cfg}
	r.hist.Init(DefaultLossHistory())
}

// DataPacket describes one arriving data packet.
type DataPacket struct {
	Seq       int64
	Size      int
	SendTime  float64 // sender clock
	SenderRTT float64 // sender's current RTT estimate, for loss aggregation
}

// OnData processes an arrival at local time now. It returns true when the
// caller should send feedback immediately rather than waiting for the
// RTT timer: at a packet that revealed the start of a new loss event, and
// at the first packet, which starts the report clock (with no receive
// interval measured yet, that turn reports nothing and arms the timer).
func (r *Receiver) OnData(now float64, pkt DataPacket) (reportNow bool) {
	if pkt.SenderRTT > 0 {
		r.senderRTT = pkt.SenderRTT
	}
	r.fbBytes += float64(pkt.Size)
	if !r.haveData {
		r.haveData = true
		r.maxSeq = pkt.Seq
		r.maxSendTime = pkt.SendTime
		r.maxArrival = now
		r.fbStart = now
		return true
	}
	if pkt.Seq <= r.maxSeq {
		// Duplicate or reordered: counted for the receive rate above,
		// but the loss bookkeeping — tuned for the simulator's in-order
		// paths — does not retract an already-declared loss.
		return false
	}
	prevSeq, prevArrival := r.maxSeq, r.maxArrival
	r.maxSeq = pkt.Seq
	r.maxSendTime = pkt.SendTime
	r.maxArrival = now

	for lost := prevSeq + 1; lost < pkt.Seq; lost++ {
		// Interpolate when the lost packet would have arrived (RFC 3448
		// §5.2) to decide which round-trip it belongs to.
		frac := float64(lost-prevSeq) / float64(pkt.Seq-prevSeq)
		lossTime := prevArrival + frac*(now-prevArrival)
		if r.haveEvent && lossTime-r.eventStartTime < r.senderRTT {
			continue // within one RTT of the current event's start: part of it
		}
		if !r.haveEvent {
			// First loss ever: slow start is over. Seed the history with
			// the interval that would sustain half the rate at which it
			// occurred (§3.4.1).
			r.seedHistory(now)
			r.haveEvent = true
		} else {
			iv := float64(lost - r.eventStartSeq)
			r.hist.OnLossEvent(iv)
			if r.cfg.OnLossInterval != nil {
				r.cfg.OnLossInterval(iv)
			}
		}
		r.eventStartSeq = lost
		r.eventStartTime = lossTime
		reportNow = true
	}
	if r.haveEvent {
		r.hist.SetOpen(float64(r.maxSeq - r.eventStartSeq))
	}
	return reportNow
}

func (r *Receiver) seedHistory(now float64) {
	if r.lossSeeded {
		return
	}
	r.lossSeeded = true
	rate := r.currentXRecv(now)
	rtt := r.senderRTT
	if rtt <= 0 {
		rtt = 0.1 // no estimate yet: seed against a nominal 100 ms path
	}
	if rate <= 0 {
		r.hist.Seed(1)
		return
	}
	p := InverseP(PFTK, float64(r.cfg.PacketSize), rtt, 4*rtt, rate/2)
	r.hist.Seed(1 / p)
}

func (r *Receiver) currentXRecv(now float64) float64 {
	if el := now - r.fbStart; el > 0 && r.fbBytes > 0 {
		return r.fbBytes / el
	}
	return r.lastXRecv
}

// P returns the current loss event rate estimate.
func (r *Receiver) P() float64 { return r.hist.LossEventRate() }

// History exposes the loss-interval history for traces and experiments.
// Its reads do not change it; Report is the receiver's own.
func (r *Receiver) History() *LossHistory { return &r.hist }

// SenderRTT returns the sender's RTT estimate as stamped on the most
// recent data packet — the report interval follows it.
func (r *Receiver) SenderRTT() float64 { return r.senderRTT }

// MakeReport builds the feedback report for local time now and starts a
// new measurement interval; the reported average becomes the history's
// discount trigger (LossHistory.Report). The receiver reports only if it
// received packets since the last report; otherwise ok is false.
func (r *Receiver) MakeReport(now float64) (rep Report, ok bool) {
	if !r.haveData || r.fbBytes == 0 {
		return Report{}, false
	}
	x := r.currentXRecv(now)
	if x <= 0 || math.IsInf(x, 0) {
		return Report{}, false
	}
	r.lastXRecv = x
	rep = Report{
		P:            r.hist.Report(),
		XRecv:        x,
		EchoSeq:      r.maxSeq,
		EchoSendTime: r.maxSendTime,
		EchoDelay:    now - r.maxArrival,
	}
	r.fbBytes = 0
	r.fbStart = now
	return rep, true
}

// The receiver's turns: if send, send the report the turn wrote to the
// caller's rep; if arm > 0, (re)arm the report timer arm seconds ahead.
// The report timer runs from the first arrival on: that arrival takes a
// report turn, and every report turn re-arms it.

// OnArrival is the receiver's turn at a data packet's arrival (OnData):
// the first packet and a new loss event take a report turn at once; any
// other arrival leaves the pending report timer as it is.
func (r *Receiver) OnArrival(now float64, pkt DataPacket, rep *Report) (send bool, arm float64) {
	if r.OnData(now, pkt) {
		return r.OnReportTimer(now, rep)
	}
	return false, 0
}

// OnReportTimer is the report turn, taken at the report timer's expiry:
// a report if data arrived since the last one, and the timer re-armed.
func (r *Receiver) OnReportTimer(now float64, rep *Report) (send bool, arm float64) {
	*rep, send = r.MakeReport(now)
	return send, r.reportInterval()
}

// reportInterval is the feedback period: one report per round-trip time
// of the sender's estimate (§3), 100 ms until the estimate arrives.
func (r *Receiver) reportInterval() float64 {
	rtt := r.senderRTT
	if rtt <= 0 {
		rtt = 0.1
	}
	return math.Max(rtt, 1e-4)
}
