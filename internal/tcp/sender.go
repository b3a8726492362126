package tcp

import (
	"math"

	"tfrc/internal/cc"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
)

// Sender is a one-way TCP data sender with an infinite backlog (an FTP
// source). Sequence numbers count packets. It implements slow start,
// congestion avoidance, fast retransmit, and per-variant loss recovery,
// with an RFC 6298-style retransmit timer quantized to a configurable
// clock granularity.
type Sender struct {
	cfg  Config
	net  *netsim.Network
	node *netsim.Node //tfrc:keep arena co-tenant: node outlives the sender on the same scheduler
	dst  netsim.NodeID
	dprt int // destination (sink) port
	sprt int // our port, where ACKs arrive
	flow int

	ccs  cc.State      // congestion window and threshold, steered by ctrl
	ctrl cc.Controller // policy: how much window events cost or earn

	next    int64 // next sequence to transmit (ns-2's t_seqno_)
	maxSent int64 // highest sequence ever transmitted, plus one
	cumack  int64 // everything below is acked
	dupacks int

	inRecovery bool
	recover    int64
	lastCut    int64 // highest seq at the most recent window cut: at
	// most one cut per window of data (ns-2 bug_fix_)
	pipe   int64    // Sack recovery: estimate of packets in flight
	sacked rangeSet //tfrc:keep scoreboard backing recycled by NewSender; receiver-held blocks above cumack
	rtxed  rangeSet //tfrc:keep scoreboard backing recycled by NewSender; holes retransmitted this recovery

	rtx     sim.Timer
	startEv sim.Handle // pending Start event, cancelled by Release
	backoff float64
	srtt    float64
	rttvar  float64
	hasRTT  bool

	// Counters for experiments.
	Sent      int64 // data packets sent, including retransmissions
	Rtx       int64 // retransmissions
	Timeouts  int64
	FastRecov int64
	started   bool
	stopped   bool

	limit    int64 // 0 = infinite backlog; else stop after this many packets
	released bool  // guards against double Release

	jitter   *sim.Rand //tfrc:keep scheduler-owned rand, reissued on Reset; non-nil when SendJitter > 0
	lastSend float64   // latest scheduled departure, preserves ordering

	// OnComplete, if set, runs once when a limited transfer is fully
	// acknowledged: the sender has stopped and detached from its port, and
	// the call is the last thing Recv does with it, so the hook may
	// Release the sender.
	OnComplete func(*Sender)
}

// NewSender creates a sender on node, addressing the sink at dst:dstPort.
// ACKs must be routed back to srcPort on node (Attach does this). flow
// tags all packets for monitors. The sender struct is drawn from the
// scheduler's agent arena. Its SACK scoreboard starts empty and takes
// its backing from the arena's range carver at the first hole the
// sender sees; whatever it grows to stays with the arena slot, so sweep
// cells and short-session generators construct senders without touching
// the allocator once the arena is warm.
func NewSender(nw *netsim.Network, node *netsim.Node, dst netsim.NodeID, dstPort, srcPort, flow int, cfg Config) *Sender {
	cfg.fill()
	s := arenaOf(nw.Scheduler()).senders.Get()
	sacked, rtxed := s.sacked.r[:0], s.rtxed.r[:0]
	*s = Sender{
		cfg:     cfg,
		net:     nw,
		node:    node,
		dst:     dst,
		dprt:    dstPort,
		sprt:    srcPort,
		flow:    flow,
		ccs:     cc.State{Cwnd: initialWindow, Ssthresh: cfg.MaxWindow},
		ctrl:    cc.New(nw.Scheduler(), cfg.CC, cfg.MaxWindow),
		backoff: 1,
	}
	s.sacked.r = sacked
	s.rtxed.r = rtxed
	s.rtx.InitArg(nw.Scheduler(), senderTimeoutFn, s)
	if cfg.SendJitter > 0 {
		s.jitter = nw.Scheduler().NewRand(cfg.JitterSeed ^ (int64(flow)+1)*0x9e3779b9)
	}
	node.Attach(srcPort, s)
	return s
}

// Release hands the sender back to its scheduler's agent arena for reuse
// by a later NewSender, stopping its timers and cancelling any pending
// Start event first. The caller must have detached the sender from its
// port (a completed limited transfer detaches itself, and may be released
// from its OnComplete); the sender must not be used afterwards. Release
// is optional — Scheduler.Reset reclaims every agent wholesale — and
// exists so scenarios that churn short-lived senders (web mice) keep as
// many resident as are in flight: the next NewSender gets the struct just
// released, scoreboard backing included.
func (s *Sender) Release() {
	if s.released {
		return
	}
	s.released = true
	s.stopped = true
	s.rtx.Stop()
	s.net.Scheduler().Cancel(s.startEv)
	s.startEv = sim.Handle{}
	s.OnComplete = nil
	if s.ctrl != nil {
		s.ctrl.Release()
		s.ctrl = nil
	}
	arenaOf(s.net.Scheduler()).senders.Put(s)
}

// senderTimeoutFn and senderStartFn are shared scheduler callbacks (the
// sender rides in the arg slot), so constructing and starting a sender
// builds no closures.
func senderTimeoutFn(x any) { x.(*Sender).onTimeout() }

func senderStartFn(x any) {
	s := x.(*Sender)
	s.started = true
	s.trySend()
}

// NewSenderLimited creates a sender that transfers exactly limit packets
// and then stops — a finite transfer (web "mouse", short session). When
// the final packet is acknowledged the sender detaches from its port and
// invokes OnComplete.
func NewSenderLimited(nw *netsim.Network, node *netsim.Node, dst netsim.NodeID, dstPort, srcPort, flow int, cfg Config, limit int64) *Sender {
	s := NewSender(nw, node, dst, dstPort, srcPort, flow, cfg)
	if limit < 1 {
		limit = 1
	}
	s.limit = limit
	return s
}

// Start begins transmission at the given simulated time.
func (s *Sender) Start(at float64) {
	s.startEv = s.net.Scheduler().AtArg(at, senderStartFn, s)
}

// Stop halts transmission permanently (used to model finite transfers).
func (s *Sender) Stop() {
	s.stopped = true
	s.rtx.Stop()
}

// Limit returns the length of a limited transfer in packets, 0 for an
// infinite backlog.
func (s *Sender) Limit() int64 { return s.limit }

func (s *Sender) window() float64 {
	return math.Min(s.ccs.Cwnd, s.cfg.MaxWindow)
}

func (s *Sender) flight() int64 { return s.next - s.cumack }

// Recv handles an arriving ACK.
//
//tfrc:hotpath
func (s *Sender) Recv(p *netsim.Packet) {
	if p.Kind != netsim.KindAck {
		s.net.Free(p)
		return
	}
	ack := p.Ack
	if p.NumSack > 0 {
		mem := &arenaOf(s.net.Scheduler()).ranges
		for i := 0; i < p.NumSack; i++ {
			s.sacked.add(mem, p.Sack[i].Start, p.Sack[i].End)
		}
	}
	if p.EchoTime > 0 {
		s.sampleRTT(s.net.Now() - p.EchoTime)
	}
	s.net.Free(p)

	switch {
	case ack > s.cumack:
		if s.onNewAck(ack) {
			if s.OnComplete != nil {
				s.OnComplete(s)
			}
			return
		}
	case ack == s.cumack && s.flight() > 0:
		s.onDupAck()
	}
	s.trySend()
}

// onNewAck advances the cumulative ACK and reports whether that
// completed a limited transfer.
//
//tfrc:hotpath
func (s *Sender) onNewAck(ack int64) (complete bool) {
	newly := ack - s.cumack
	s.cumack = ack
	if s.next < ack {
		// Original transmissions beat the go-back-N resend: skip ahead.
		s.next = ack
	}
	s.sacked.dropBelow(ack)
	s.rtxed.dropBelow(ack)
	s.backoff = 1

	if s.limit > 0 && s.cumack >= s.limit {
		// Finite transfer complete: release the port for reuse.
		s.Stop()
		s.node.Detach(s.sprt)
		return true
	}

	if s.inRecovery {
		if ack >= s.recover {
			s.exitRecovery()
		} else {
			s.onPartialAck(newly)
			s.resetTimer()
			return false
		}
	} else {
		s.dupacks = 0
		s.ctrl.OnAck(&s.ccs, newly)
	}
	s.dupacks = 0
	s.resetTimer()
	return false
}

func (s *Sender) exitRecovery() {
	s.inRecovery = false
	s.ccs.Cwnd = s.ccs.Ssthresh
	s.rtxed.clear()
}

func (s *Sender) onPartialAck(newly int64) {
	switch s.cfg.Variant {
	case Reno:
		// Classic Reno leaves recovery on the first new ACK even if it
		// is partial; remaining losses must be found by timeout or a
		// fresh fast retransmit — the double-halving behavior §3.5.1
		// describes.
		s.exitRecovery()
		s.dupacks = 0
	case NewReno:
		// Retransmit the next hole, deflate by the amount acked.
		s.ccs.Cwnd = math.Max(s.ccs.Cwnd-float64(newly)+1, 1)
		s.retransmit(s.cumack)
	case Sack:
		// The partial ACK removes newly packets from the network.
		s.pipe -= newly
		if s.pipe < 0 {
			s.pipe = 0
		}
	}
}

//tfrc:hotpath
func (s *Sender) onDupAck() {
	s.dupacks++
	if s.inRecovery {
		switch s.cfg.Variant {
		case Reno, NewReno:
			s.ccs.Cwnd++ // window inflation: a dupack means a packet left
		case Sack:
			if s.pipe > 0 {
				s.pipe--
			}
		}
		return
	}
	if s.dupacks < 3 {
		return
	}
	// At most one window cut per window of data (ns-2's bug_fix_):
	// further dupack runs before the cut point is acked are echoes of
	// the same congestion episode.
	if s.cumack < s.lastCut {
		return
	}
	// Fast retransmit. The controller decides what the loss episode
	// costs (Reno halves, Vegas/LEDBAT cut their own way, Relentless
	// nothing — it pays per segment in retransmit); the variant keeps
	// its recovery mechanics on top of whatever window is left.
	s.FastRecov++
	s.ctrl.OnLoss(&s.ccs, s.flight())
	s.recover = s.next
	s.lastCut = s.next
	switch s.cfg.Variant {
	case Tahoe:
		s.ccs.Cwnd = 1
		s.dupacks = 0
		s.retransmit(s.cumack)
	case Reno, NewReno:
		s.inRecovery = true
		s.ccs.Cwnd += 3 // inflation: three dupacks mean three packets left
		s.retransmit(s.cumack)
	case Sack:
		s.inRecovery = true
		s.pipe = s.flight() - 3
		if s.pipe < 0 {
			s.pipe = 0
		}
		s.retransmit(s.cumack)
		s.pipe++
	}
	s.resetTimer()
}

func (s *Sender) onTimeout() {
	if s.stopped || s.flight() == 0 {
		return
	}
	s.Timeouts++
	s.ctrl.OnTimeout(&s.ccs, s.flight())
	s.dupacks = 0
	s.lastCut = s.next
	s.inRecovery = false
	s.sacked.clear()
	s.rtxed.clear()
	s.backoff = math.Min(s.backoff*2, 64)
	// Go back N: resume transmission from the cumulative ACK and let
	// slow start walk back through the holes (ns-2: t_seqno_ =
	// highest_ack_). Without this, every lost hole would cost its own
	// timeout.
	s.next = s.cumack
	s.trySend()
	s.resetTimer()
}

func (s *Sender) sampleRTT(r float64) {
	if r <= 0 {
		return
	}
	s.ctrl.OnRTTSample(&s.ccs, r)
	if !s.hasRTT {
		s.hasRTT = true
		s.srtt = r
		s.rttvar = r / 2
		return
	}
	const alpha, beta = 1.0 / 8, 1.0 / 4
	s.rttvar = (1-beta)*s.rttvar + beta*math.Abs(r-s.srtt)
	s.srtt = (1-alpha)*s.srtt + alpha*r
}

// rto returns the quantized retransmit timeout. The aggressive variant
// under-provisions the variance term and uses a minimal floor, modelling
// the spuriously retransmitting Solaris 2.7 sender from §4.3.
func (s *Sender) rto() float64 {
	if !s.hasRTT {
		return math.Max(1.0, s.cfg.minRTO())
	}
	k := 4.0
	if s.cfg.AggressiveRTO {
		k = 0.5
	}
	raw := s.srtt + k*s.rttvar
	g := s.cfg.Granularity
	quantized := math.Ceil(raw/g) * g
	return math.Max(quantized, s.cfg.minRTO())
}

func (s *Sender) resetTimer() {
	if s.flight() == 0 {
		s.rtx.Stop()
		return
	}
	s.rtx.Reset(s.rto() * s.backoff)
}

func (s *Sender) retransmit(seq int64) {
	s.ctrl.OnLostSegment(&s.ccs) // per-segment loss charge (Relentless)
	s.rtxed.add(&arenaOf(s.net.Scheduler()).ranges, seq, seq+1)
	s.emit(seq, true)
}

// trySend transmits whatever the window (or the recovery pipe) allows.
//
//tfrc:hotpath
func (s *Sender) trySend() {
	if !s.started || s.stopped {
		return
	}
	if s.inRecovery && s.cfg.Variant == Sack {
		for s.pipe < int64(s.window()) {
			seq, isRtx, ok := s.nextSackSend()
			if !ok {
				break
			}
			if isRtx {
				s.retransmit(seq)
			} else {
				s.next++
				s.emit(seq, false)
			}
			s.pipe++
		}
		return
	}
	for s.flight() < int64(s.window()) {
		if s.limit > 0 && s.next >= s.limit {
			return
		}
		seq := s.next
		s.next++
		s.emit(seq, seq < s.maxSent)
	}
}

// nextSackSend picks the next segment during SACK recovery: the first
// un-SACKed, un-retransmitted hole below recover that the scoreboard
// considers lost, else new data. A hole counts as lost only when at least
// three packets above it have been selectively acknowledged (the RFC 3517
// IsLost rule with DupThresh = 3); anything less may simply still be in
// flight.
func (s *Sender) nextSackSend() (seq int64, isRtx, ok bool) {
	hole := s.cumack
	for hole < s.recover {
		if !s.sacked.contains(hole) && !s.rtxed.contains(hole) {
			if s.sacked.countIn(hole+1, s.recover) < 3 {
				break // not yet deemed lost: send new data instead
			}
			return hole, true, true
		}
		hole++
		hole = s.sacked.firstGapAtOrAfter(hole)
	}
	if s.limit > 0 && s.next >= s.limit {
		return 0, false, false
	}
	return s.next, false, true
}

func (s *Sender) emit(seq int64, isRtx bool) {
	p := s.net.NewPacket()
	p.Kind = netsim.KindData
	p.Flow = s.flow
	p.Size = s.cfg.PacketSize
	p.Seq = seq
	p.Src = s.node.ID
	p.Dst = s.dst
	p.SrcPort = s.sprt
	p.DstPort = s.dprt
	s.Sent++
	if isRtx {
		s.Rtx++
	}
	if seq >= s.maxSent {
		s.maxSent = seq + 1
	}
	// Arm the timer directly: resetTimer consults flight(), which does
	// not yet include this packet.
	if !s.rtx.Pending() {
		s.rtx.Reset(s.rto() * s.backoff)
	}
	if s.jitter == nil {
		s.node.Send(p)
		return
	}
	// Phase-breaking processing delay, monotone so packets stay ordered.
	now := s.net.Now()
	at := now + s.jitter.Float64()*s.cfg.SendJitter
	if at < s.lastSend {
		at = s.lastSend
	}
	s.lastSend = at + 1e-9
	s.net.Scheduler().AtArg(at, netsim.SendFn, p)
}
