// Package traffic provides the background-load generators used by the
// paper's evaluation: ON/OFF UDP sources with heavy-tailed (Pareto)
// ON/OFF durations that produce self-similar aggregate traffic (§4.1.3,
// after Willinger et al.), plain CBR sources, and short-lived TCP "mice"
// sessions for the web-like background in §4.2.
package traffic

import (
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/tcp"
)

// OnOffConfig parameterizes one ON/OFF source.
type OnOffConfig struct {
	// MeanOn and MeanOff are the mean sojourn times in seconds (paper:
	// 1 s ON, 2 s OFF).
	MeanOn, MeanOff float64
	// Shape is the Pareto shape parameter (must exceed 1; 1.5 yields
	// the classic self-similar aggregate).
	Shape float64
	// Rate is the sending rate while ON, in bits/sec (paper: 500 kb/s).
	Rate float64
	// PacketSize in bytes (default 1000).
	PacketSize int
}

// DefaultOnOff returns the paper's §4.1.3 source parameters.
func DefaultOnOff() OnOffConfig {
	return OnOffConfig{MeanOn: 1, MeanOff: 2, Shape: 1.5, Rate: 500e3, PacketSize: 1000}
}

// OnOff is a UDP-like unreliable source alternating between Pareto ON
// periods, during which it emits packets at a constant rate, and Pareto
// OFF periods of silence.
type OnOff struct {
	cfg  OnOffConfig
	net  *netsim.Network
	node *netsim.Node
	dst  netsim.NodeID
	port int
	flow int
	rng  *sim.Rand

	on    bool
	until float64 // end of the current ON period
	Sent  int64
}

// The generators' scheduler callbacks are shared, the generator riding in
// the event's arg slot, so building one binds no closures.
func onOffEmitFn(x any)     { x.(*OnOff).emit() }
func onOffStartOnFn(x any)  { x.(*OnOff).startOn() }
func onOffStartOffFn(x any) { x.(*OnOff).startOff() }
func cbrEmitFn(x any)       { x.(*CBR).emit() }
func miceSpawnFn(x any)     { x.(*Mice).spawn() }

// NewOnOff creates a source on node sending to dst:port while ON. Each
// source should get its own rng so sources are independent. Sources are
// drawn from the scheduler's arena.
func NewOnOff(nw *netsim.Network, node *netsim.Node, dst netsim.NodeID, port, flow int, cfg OnOffConfig, rng *sim.Rand) *OnOff {
	if cfg.PacketSize == 0 {
		cfg.PacketSize = 1000
	}
	if cfg.Rate <= 0 || cfg.MeanOn <= 0 || cfg.MeanOff <= 0 {
		panic("traffic: ON/OFF source needs positive rate and sojourn times")
	}
	o := sim.Next(&arenaOf(nw.Scheduler()).onoffs)
	*o = OnOff{cfg: cfg, net: nw, node: node, dst: dst, port: port, flow: flow, rng: rng}
	return o
}

// Start begins the ON/OFF cycle at the given time (starting OFF, so
// sources desynchronize naturally).
func (o *OnOff) Start(at float64) {
	o.net.Scheduler().AtArg(at, onOffStartOffFn, o)
}

func (o *OnOff) startOff() {
	o.on = false
	off := o.rng.Pareto(o.cfg.MeanOff, o.cfg.Shape)
	o.net.Scheduler().AfterArg(off, onOffStartOnFn, o)
}

func (o *OnOff) startOn() {
	o.on = true
	o.until = o.net.Now() + o.rng.Pareto(o.cfg.MeanOn, o.cfg.Shape)
	o.emit()
}

// emit sends one packet of an ON period and schedules the next, or ends
// the period.
func (o *OnOff) emit() {
	now := o.net.Now()
	if now >= o.until {
		o.startOff()
		return
	}
	p := o.net.NewPacket()
	p.Kind = netsim.KindCBR
	p.Flow = o.flow
	p.Size = o.cfg.PacketSize
	p.Src = o.node.ID
	p.Dst = o.dst
	p.DstPort = o.port
	o.Sent++
	o.node.Send(p)
	gap := float64(o.cfg.PacketSize) * 8 / o.cfg.Rate
	o.net.Scheduler().AfterArg(gap, onOffEmitFn, o)
}

// CBR is a constant-bit-rate source.
type CBR struct {
	net        *netsim.Network
	node       *netsim.Node
	dst        netsim.NodeID
	port, flow int
	size       int
	gap        float64
	Sent       int64
}

// NewCBR creates a source emitting size-byte packets at rate bits/sec.
func NewCBR(nw *netsim.Network, node *netsim.Node, dst netsim.NodeID, port, flow, size int, rate float64) *CBR {
	if rate <= 0 || size <= 0 {
		panic("traffic: CBR needs positive rate and size")
	}
	c := sim.Next(&arenaOf(nw.Scheduler()).cbrs)
	*c = CBR{
		net: nw, node: node, dst: dst, port: port, flow: flow,
		size: size, gap: float64(size) * 8 / rate,
	}
	return c
}

// Start begins emission at the given time.
func (c *CBR) Start(at float64) { c.net.Scheduler().AtArg(at, cbrEmitFn, c) }

// emit sends one packet and schedules the next.
func (c *CBR) emit() {
	p := c.net.NewPacket()
	p.Kind = netsim.KindCBR
	p.Flow = c.flow
	p.Size = c.size
	p.Src = c.node.ID
	p.Dst = c.dst
	p.DstPort = c.port
	c.Sent++
	c.node.Send(p)
	c.net.Scheduler().AfterArg(c.gap, cbrEmitFn, c)
}

// Sink discards arriving packets, freeing them back to the pool. Attach
// one wherever background traffic terminates.
type Sink struct {
	net      *netsim.Network
	Received int64
	Bytes    int64
}

// NewSink attaches a discarding sink at node:port.
func NewSink(nw *netsim.Network, node *netsim.Node, port int) *Sink {
	s := sim.Next(&arenaOf(nw.Scheduler()).sinks)
	*s = Sink{net: nw}
	node.Attach(port, s)
	return s
}

// Recv implements netsim.Agent.
func (s *Sink) Recv(p *netsim.Packet) {
	s.Received++
	s.Bytes += int64(p.Size)
	s.net.Free(p)
}

// MiceConfig parameterizes a stream of short TCP transfers sharing a
// node pair: the "background forward TCP traffic" of §4.2.
type MiceConfig struct {
	// MeanInterarrival between session starts (exponential), seconds.
	MeanInterarrival float64
	// MeanSize in packets per transfer (exponential, min 1).
	MeanSize float64
	// Variant for the transfers (default Sack).
	Variant tcp.Variant
	// BasePort: the session in port slot k binds its sender to port
	// BasePort + k on the source and its sink to the same port on the
	// destination, k < MiceSlots, so the two hosts must differ. Zero
	// means 1000; a node's delivery table reaches its highest bound
	// port, so that default costs a 1064-entry table on each host, once
	// per node slot (a recycled network keeps it). ScenarioBuilder's
	// AddMice sets it to the next MiceSlots ports free on both hosts.
	BasePort int
}

// MiceSlots is the number of port slots a Mice generator cycles through,
// and so the most sessions it keeps alive at once; the generator binds
// ports BasePort to BasePort + MiceSlots - 1 on both of its hosts.
const MiceSlots = 64

// Mice launches short TCP sessions between src and dst. What it keeps
// resident follows the sessions that are alive: a sender goes back to the
// TCP agent arena the moment its last packet is acknowledged, and the
// next session starts on that same warm struct.
type Mice struct {
	cfg  MiceConfig
	net  *netsim.Network
	src  *netsim.Node
	dst  *netsim.Node
	flow int
	rng  *sim.Rand

	slot     int
	Sessions int64
	doneFn   func(*tcp.Sender) // bound once: every session's OnComplete

	slots [MiceSlots]miceSlot // by port slot; inline, so a generator is one allocation
}

// miceSlot is what is bound to one port slot, each owning its binding.
// snd is the slot's unfinished transfer, nil once it completes. sink,
// made by the slot's first session, stays bound for the scenario: a late
// duplicate is still acknowledged, and each later session restarts it.
type miceSlot struct {
	snd  *tcp.Sender
	sink *tcp.Sink
}

// SessionKind says which step of a transfer a SessionEvent reports.
type SessionKind uint8

const (
	SessionStart   SessionKind = iota // sender and sink bound, first packet about to leave
	SessionDone                       // every packet acknowledged
	SessionEvicted                    // still unfinished when its port slot came round again
)

// SessionEvent is one step in the life of a Mice transfer. Sent, Rtx and
// Timeouts are the sender's counters and Received the sink's count of
// arriving data packets (duplicates included) at that moment; all four
// are zero at SessionStart.
type SessionEvent struct {
	Kind                SessionKind
	At                  float64
	Flow                int // the generator's flow id
	Slot                int // port slot, 0..MiceSlots-1
	Size                int64
	Sent, Rtx, Timeouts int64
	Received            int64
}

// ObserveSessions makes every Mice generator on s report its sessions to
// fn, in event order, while the setting holds: they read it as they
// report and keep no copy. The setting belongs to the scheduler and
// survives Reset; nil switches it off.
func ObserveSessions(s *sim.Scheduler, fn func(SessionEvent)) { arenaOf(s).observe = fn }

func (m *Mice) report(kind SessionKind, k int, snd *tcp.Sender) {
	observe := arenaOf(m.net.Scheduler()).observe
	if observe == nil {
		return
	}
	observe(SessionEvent{
		Kind: kind, At: m.net.Now(), Flow: m.flow, Slot: k, Size: snd.Limit(),
		Sent: snd.Sent, Rtx: snd.Rtx, Timeouts: snd.Timeouts,
		Received: m.slots[k].sink.Received,
	})
}

// NewMice creates the generator; flow tags all its packets.
func NewMice(nw *netsim.Network, src, dst *netsim.Node, flow int, cfg MiceConfig, rng *sim.Rand) *Mice {
	if cfg.MeanInterarrival <= 0 || cfg.MeanSize <= 0 {
		panic("traffic: mice need positive interarrival and size")
	}
	if cfg.BasePort == 0 {
		cfg.BasePort = 1000
	}
	m := sim.Next(&arenaOf(nw.Scheduler()).mice)
	// Slot entries from a previous scenario were reclaimed wholesale by
	// the arena reset: the zeroed slots forget them rather than
	// re-releasing.
	doneFn := m.doneFn
	*m = Mice{cfg: cfg, net: nw, src: src, dst: dst, flow: flow, rng: rng}
	m.doneFn = doneFn
	if m.doneFn == nil {
		m.doneFn = m.sessionDone
	}
	return m
}

// Start schedules the first session at the given time.
func (m *Mice) Start(at float64) {
	m.net.Scheduler().AtArg(at, miceSpawnFn, m)
}

func (m *Mice) spawn() {
	m.Sessions++
	k := m.slot % MiceSlots
	m.slot++
	port := m.cfg.BasePort + k
	size := int64(m.rng.Exponential(m.cfg.MeanSize)) + 1

	// Ports are recycled. A sender still bound to this slot is a
	// straggler: it simply dies (with MiceSlots slots that is rare and
	// harmless for background load), and Release unbinds it and hands
	// it back to the arena here instead of in sessionDone. The slot's
	// sink starts over. A port another flow holds panics in Attach.
	sl := &m.slots[k]
	if sl.snd != nil {
		m.report(SessionEvicted, k, sl.snd)
		sl.snd.Release()
	}
	if sl.sink == nil {
		sl.sink = tcp.NewSink(m.net, m.dst, port, m.flow, 40)
	} else {
		sl.sink.Restart()
	}
	snd := tcp.NewSenderLimited(m.net, m.src, m.dst.ID, port, port, m.flow, tcp.Config{Variant: m.cfg.Variant}, size)
	snd.OnComplete = m.doneFn
	sl.snd = snd
	m.report(SessionStart, k, snd)
	snd.Start(m.net.Now())
	m.net.Scheduler().AfterArg(m.rng.Exponential(m.cfg.MeanInterarrival), miceSpawnFn, m)
}

// sessionDone is every session's OnComplete: the sender has stopped,
// detached itself and will not be touched again by the ACK that finished
// it, so it goes back to the arena now rather than when its slot comes
// round MiceSlots sessions later.
func (m *Mice) sessionDone(snd *tcp.Sender) {
	k := 0
	for m.slots[k].snd != snd {
		k++
	}
	m.report(SessionDone, k, snd)
	m.slots[k].snd = nil
	snd.Release()
}
