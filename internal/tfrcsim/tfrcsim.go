// Package tfrcsim binds the TFRC state machines of internal/core to the
// packet-level simulator: a paced rate-based data sender and a feedback-
// generating receiver, the simulator-side counterpart of the paper's ns-2
// agents.
package tfrcsim

import (
	"math"

	"tfrc/internal/core"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
)

// Config bundles the protocol parameters for one TFRC connection.
type Config struct {
	// Sender configures the rate-control state machine.
	Sender core.SenderConfig
	// Estimator overrides the receiver's loss-rate estimator (nil: the
	// paper's Average Loss Interval method). Only settable in code;
	// serialized configs always mean the default.
	Estimator core.LossRateEstimator `json:"-"`
	// PacingJitter perturbs each inter-packet gap by a uniform factor
	// in [1-j, 1+j], breaking simulator phase effects at DropTail
	// queues (the real-world role the paper ascribes to small queueing
	// variations downstream of the bottleneck, §4.3). 0 disables.
	PacingJitter float64
	// JitterSeed seeds the jitter stream (mixed with the flow id).
	JitterSeed int64
	// ECN marks data packets ECN-capable; an ECN-enabled RED queue then
	// signals congestion by marking instead of dropping, and the
	// receiver counts marks as loss events (paper §7).
	ECN bool
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
	cfg  Config
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
	started bool
	stopped bool

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
		cfg:  cfg,
		net:  nw,
		node: node,
		dst:  dst,
		dprt: dstPort,
		sprt: srcPort,
		flow: flow,
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
func receiverFeedbackFn(x any) { x.(*Receiver).sendFeedback() }

func senderStartFn(x any) {
	s := x.(*Sender)
	s.started = true
	s.onSend()
	s.noFbTmr.Reset(s.core.NoFeedbackTimeout())
}

// Start begins transmission at the given simulated time.
func (s *Sender) Start(at float64) {
	s.net.Scheduler().AtArg(at, senderStartFn, s)
}

// Stop halts the sender permanently.
func (s *Sender) Stop() {
	s.stopped = true
	s.sendTmr.Stop()
	s.noFbTmr.Stop()
}

// Rate returns the sender's current allowed rate in bytes/sec.
func (s *Sender) Rate() float64 { return s.core.Rate() }

// Core exposes the rate-control state machine for traces and tests.
func (s *Sender) Core() *core.Sender { return &s.core }

//tfrc:hotpath
func (s *Sender) onSend() {
	if s.stopped {
		return
	}
	s.emit()
	gap := s.core.PacketInterval()
	if s.jitter != nil {
		gap *= 1 + s.cfg.PacingJitter*(2*s.jitter.Float64()-1)
	}
	s.sendTmr.Reset(gap)
}

//tfrc:hotpath
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
	if s.core.RTT().Valid() {
		p.SenderRTT = s.core.RTT().SRTT()
	}
	p.ECT = s.cfg.ECN
	s.seq++
	s.Sent++
	s.node.Send(p)
}

// Recv handles a feedback packet from the receiver.
//
//tfrc:hotpath
func (s *Sender) Recv(p *netsim.Packet) {
	if p.Kind != netsim.KindFeedback || s.stopped {
		s.net.Free(p)
		return
	}
	now := s.net.Now()
	rep := core.Report{
		P:            p.LossEventRate,
		XRecv:        p.RecvRate,
		EchoSeq:      p.EchoSeq,
		EchoSendTime: p.EchoTime,
		EchoDelay:    p.EchoDelay,
	}
	s.Feedbacks++
	s.core.OnFeedback(core.Feedback{
		P:         rep.P,
		XRecv:     rep.XRecv,
		RTTSample: rep.RTTSample(now),
	})
	s.net.Free(p)
	if s.OnRateChange != nil {
		s.OnRateChange(now, s.core.Rate())
	}
	s.noFbTmr.Reset(s.core.NoFeedbackTimeout())
	// A rate increase shortens the inter-packet gap; pull the pending
	// send forward if the new spacing says so.
	if dl, ok := s.sendTmr.Deadline(); ok {
		next := now + s.core.PacketInterval()
		if next < dl {
			s.sendTmr.ResetAt(next)
		}
	}
}

func (s *Sender) onNoFeedback() {
	if s.stopped {
		return
	}
	s.NoFbCuts++
	s.core.OnNoFeedback()
	if s.OnRateChange != nil {
		s.OnRateChange(s.net.Now(), s.core.Rate())
	}
	s.noFbTmr.Reset(s.core.NoFeedbackTimeout())
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
// is drawn from the scheduler's agent arena; re-initializing the
// embedded receiver reuses its loss-interval buffers.
func NewReceiver(nw *netsim.Network, node *netsim.Node, port, flow int, cfg Config) *Receiver {
	pktSize := cfg.Sender.PacketSize
	if pktSize == 0 {
		pktSize = 1000
	}
	r := arenaOf(nw.Scheduler()).receivers.Get()
	// Preserve the embedded state machine across the wholesale reset so
	// its Init can reuse the loss-interval buffers it already owns.
	saved := r.core
	*r = Receiver{
		net:  nw,
		node: node,
		port: port,
		flow: flow,
	}
	r.core = saved
	r.core.Init(core.ReceiverConfig{
		PacketSize: pktSize,
		Eq:         cfg.Sender.Eq,
		Estimator:  cfg.Estimator,
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

// P returns the receiver's current loss event rate estimate.
func (r *Receiver) P() float64 { return r.core.P() }

// Recv handles one data packet.
//
//tfrc:hotpath
func (r *Receiver) Recv(p *netsim.Packet) {
	if p.Kind != netsim.KindData {
		r.net.Free(p)
		return
	}
	now := r.net.Now()
	first := !r.core.HaveData()
	newLoss := r.core.OnData(now, core.DataPacket{
		Seq:       p.Seq,
		Size:      p.Size,
		SendTime:  p.SendTime,
		SenderRTT: p.SenderRTT,
		CE:        p.CE,
	})
	r.peer = p.Src
	r.pport = p.SrcPort
	r.net.Free(p)
	if first || newLoss {
		// Bootstrap the sender's RTT estimate immediately, and expedite
		// the report when a new loss event begins.
		r.sendFeedback()
		return
	}
	if !r.fbTmr.Pending() {
		r.fbTmr.Reset(r.interval())
	}
}

// interval is the feedback period: one report per round-trip time of
// the sender's estimate (§3).
func (r *Receiver) interval() float64 {
	rtt := r.core.SenderRTT()
	if rtt <= 0 {
		rtt = 0.1 // until the sender's estimate converges
	}
	return math.Max(rtt, 1e-4)
}

//tfrc:hotpath
func (r *Receiver) sendFeedback() {
	now := r.net.Now()
	rep, ok := r.core.MakeReport(now)
	if ok {
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
	r.fbTmr.Reset(r.interval())
}

// Pair wires a TFRC connection between two nodes: data flows src → dst.
func Pair(nw *netsim.Network, src, dst *netsim.Node, dstPort, srcPort, flow int, cfg Config) (*Sender, *Receiver) {
	recv := NewReceiver(nw, dst, dstPort, flow, cfg)
	send := NewSender(nw, src, dst.ID, dstPort, srcPort, flow, cfg)
	return send, recv
}
