// Package tfrcsim drives the TFRC agents of internal/core over the
// packet-level simulator — the simulator-side counterpart of the paper's
// ns-2 agents. The protocol's turns (when to send, report, and arm which
// timer) are core's; this package keeps only what is the simulator's: the
// packet fields, sim.Timers (optionally on a coarse timer wheel), and
// pacing jitter.
package tfrcsim

import (
	"tfrc/internal/core"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
)

// Config bundles the protocol parameters for one TFRC connection.
type Config struct {
	// Sender configures the rate-control state machine.
	Sender core.SenderConfig
	// OnLossInterval, when set, observes every loss interval (packets)
	// the receiver closes; see core.ReceiverConfig. Only settable in
	// code: serialized configs never carry it.
	OnLossInterval func(packets float64) `json:"-"`
	// PacingJitter perturbs each inter-packet gap by a uniform factor
	// in [1-j, 1+j], breaking simulator phase effects at DropTail
	// queues (the real-world role the paper ascribes to small queueing
	// variations downstream of the bottleneck, §4.3). 0 disables.
	PacingJitter float64
	// JitterSeed seeds the jitter stream (mixed with the flow id).
	JitterSeed int64
	// CoarseTimerTick, when positive, runs the connection's feedback and
	// no-feedback timers on a shared timer wheel with this tick
	// (seconds): deadlines round up to the next tick and every timer in
	// a tick costs one scheduler event, so a million flows' feedback
	// machinery stays a bounded event population instead of a
	// million-entry queue. Data pacing is unaffected — send timers stay
	// exact. 0 keeps all timers exact (the default; figure scenarios
	// depend on exact feedback timing).
	CoarseTimerTick float64
}

// DefaultConfig returns the paper's standard configuration.
func DefaultConfig() Config {
	return Config{Sender: core.DefaultSenderConfig()}
}

// Sender is the TFRC data-sending agent.
type Sender struct {
	net  *netsim.Network
	node *netsim.Node
	dst  netsim.NodeID
	dprt int
	sprt int
	flow int

	core    core.Sender // embedded by value so pooled agents reuse its state
	seq     int64
	sendTmr sim.Timer
	noFbTmr sim.Timer
	jitter  *sim.Rand
	pacing  float64 // Config.PacingJitter, the jitter's amplitude

	// Counters for experiments.
	Sent      int64
	Feedbacks int64
	NoFbCuts  int64

	// OnRateChange, when set, observes every rate update (bytes/sec)
	// for the Figure 19/20 trace experiments.
	OnRateChange func(now, rate float64)
}

// NewSender creates the agent on node, addressing its receiver at
// dst:dstPort; feedback must come back to srcPort. The agent — with its
// embedded rate-control state machine — comes from the scheduler's agent
// arena and is recycled across sweep cells.
func NewSender(nw *netsim.Network, node *netsim.Node, dst netsim.NodeID, dstPort, srcPort, flow int, cfg Config) *Sender {
	s := arenaOf(nw.Scheduler()).senders.Get()
	*s = Sender{
		net:    nw,
		node:   node,
		dst:    dst,
		dprt:   dstPort,
		sprt:   srcPort,
		flow:   flow,
		pacing: cfg.PacingJitter,
	}
	s.core.Init(cfg.Sender)
	s.sendTmr.InitArg(nw.Scheduler(), senderSendFn, s)
	s.noFbTmr.InitArg(nw.Scheduler(), senderNoFeedbackFn, s)
	if cfg.CoarseTimerTick > 0 {
		s.noFbTmr.Coarse(nw.Scheduler().Wheel(cfg.CoarseTimerTick))
	}
	if cfg.PacingJitter > 0 {
		s.jitter = nw.Scheduler().NewRand(cfg.JitterSeed ^ (int64(flow)+1)*0x7f4a7c15)
	}
	node.Attach(srcPort, s)
	return s
}

// Shared scheduler callbacks (the agent rides in the arg slot), so
// constructing and starting agents builds no closures.
func senderSendFn(x any)       { x.(*Sender).onSend() }
func senderNoFeedbackFn(x any) { x.(*Sender).onNoFeedback() }
func receiverFeedbackFn(x any) {
	r := x.(*Receiver)
	var rep core.Report
	send, arm := r.core.OnReportTimer(r.net.Now(), &rep)
	r.act(&rep, send, arm)
}

func senderStartFn(x any) {
	s := x.(*Sender)
	s.onSend()
	s.noFbTmr.Reset(s.core.NoFeedbackTimeout())
}

// Start begins transmission at the given simulated time.
func (s *Sender) Start(at float64) {
	s.net.Scheduler().AtArg(at, senderStartFn, s)
}

// Rate returns the sender's current allowed rate in bytes/sec.
func (s *Sender) Rate() float64 { return s.core.Rate() }

// Core exposes the rate-control state machine for traces and tests.
func (s *Sender) Core() *core.Sender { return &s.core }

func (s *Sender) onSend() {
	s.emit()
	jitter := 1.0
	if s.jitter != nil {
		jitter = 1 + s.pacing*(2*s.jitter.Float64()-1)
	}
	s.sendTmr.Reset(s.core.OnSend(s.net.Now(), 0, jitter))
}

func (s *Sender) emit() {
	p := s.net.NewPacket()
	p.Kind = netsim.KindData
	p.Flow = s.flow
	p.Size = s.core.PacketSize()
	p.Seq = s.seq
	p.Src = s.node.ID
	p.Dst = s.dst
	p.SrcPort = s.sprt
	p.DstPort = s.dprt
	p.SenderRTT = s.core.RTT().SRTT()
	s.seq++
	s.Sent++
	s.node.Send(p)
}

// Recv handles a feedback packet from the receiver.
func (s *Sender) Recv(p *netsim.Packet) {
	if p.Kind != netsim.KindFeedback {
		s.net.Free(p)
		return
	}
	now := s.net.Now()
	ok, timeout, pull := s.core.OnReport(now, core.Report{
		P:            p.LossEventRate,
		XRecv:        p.RecvRate,
		EchoSeq:      p.EchoSeq,
		EchoSendTime: p.EchoTime,
		EchoDelay:    p.EchoDelay,
	}, 0)
	s.net.Free(p)
	if !ok {
		return
	}
	s.Feedbacks++
	if s.OnRateChange != nil {
		s.OnRateChange(now, s.core.Rate())
	}
	s.noFbTmr.Reset(timeout)
	if pull > 0 {
		s.sendTmr.Reset(pull)
	}
}

func (s *Sender) onNoFeedback() {
	s.NoFbCuts++
	timeout := s.core.OnNoFeedback()
	if s.OnRateChange != nil {
		s.OnRateChange(s.net.Now(), s.core.Rate())
	}
	s.noFbTmr.Reset(timeout)
}

// Receiver is the TFRC feedback-generating agent.
type Receiver struct {
	net  *netsim.Network
	node *netsim.Node
	port int
	flow int

	core  core.Receiver // embedded by value so pooled agents reuse its state
	fbTmr sim.Timer
	peer  netsim.NodeID
	pport int

	// Reports counts feedback packets sent.
	Reports int64
}

// NewReceiver attaches a TFRC receiver at node:port. Like the sender it
// is drawn from the scheduler's agent arena, and its state machine's
// loss-interval buffers sit in the same slot.
func NewReceiver(nw *netsim.Network, node *netsim.Node, port, flow int, cfg Config) *Receiver {
	pktSize := cfg.Sender.PacketSize
	if pktSize == 0 {
		pktSize = 1000
	}
	r := arenaOf(nw.Scheduler()).receivers.Get()
	*r = Receiver{
		net:  nw,
		node: node,
		port: port,
		flow: flow,
	}
	r.core.Init(core.ReceiverConfig{
		PacketSize:     pktSize,
		OnLossInterval: cfg.OnLossInterval,
	})
	r.fbTmr.InitArg(nw.Scheduler(), receiverFeedbackFn, r)
	if cfg.CoarseTimerTick > 0 {
		r.fbTmr.Coarse(nw.Scheduler().Wheel(cfg.CoarseTimerTick))
	}
	node.Attach(port, r)
	return r
}

// Core exposes the receiver state machine for traces and tests.
func (r *Receiver) Core() *core.Receiver { return &r.core }

// P returns the receiver's current loss event rate estimate. Reading it
// does not change the receiver.
func (r *Receiver) P() float64 { return r.core.P() }

// Recv handles one data packet.
func (r *Receiver) Recv(p *netsim.Packet) {
	if p.Kind != netsim.KindData {
		r.net.Free(p)
		return
	}
	var rep core.Report
	send, arm := r.core.OnArrival(r.net.Now(), core.DataPacket{
		Seq:       p.Seq,
		Size:      p.Size,
		SendTime:  p.SendTime,
		SenderRTT: p.SenderRTT,
	}, &rep)
	r.peer = p.Src
	r.pport = p.SrcPort
	r.net.Free(p)
	r.act(&rep, send, arm)
}

// act does what a receiver turn asks: send the report, arm the timer.
func (r *Receiver) act(rep *core.Report, send bool, arm float64) {
	if send {
		p := r.net.NewPacket()
		p.Kind = netsim.KindFeedback
		p.Flow = r.flow
		p.Size = 40
		p.Src = r.node.ID
		p.Dst = r.peer
		p.SrcPort = r.port
		p.DstPort = r.pport
		p.LossEventRate = rep.P
		p.RecvRate = rep.XRecv
		p.EchoSeq = rep.EchoSeq
		p.EchoTime = rep.EchoSendTime
		p.EchoDelay = rep.EchoDelay
		r.Reports++
		r.node.Send(p)
	}
	if arm > 0 {
		r.fbTmr.Reset(arm)
	}
}

// Pair wires a TFRC connection between two nodes: data flows src → dst.
func Pair(nw *netsim.Network, src, dst *netsim.Node, dstPort, srcPort, flow int, cfg Config) (*Sender, *Receiver) {
	recv := NewReceiver(nw, dst, dstPort, flow, cfg)
	send := NewSender(nw, src, dst.ID, dstPort, srcPort, flow, cfg)
	return send, recv
}
