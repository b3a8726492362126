package netsim

import "tfrc/internal/sim"

// TapEvent tells a link tap what happened to a packet at that link.
type TapEvent uint8

// Tap events.
const (
	TapArrive TapEvent = iota // packet offered to the link (pre-queue)
	TapDrop                   // packet dropped by the queue discipline
	TapDepart                 // packet finished serializing onto the wire
)

// Tap observes packets at a link. Taps must not retain the packet.
// Attach taps before the simulation runs: a packet that started
// serializing while the link had no tap is not reported when it departs.
// A tap only keeps the link's drain event armed, so it never shifts
// simulation timing.
type Tap func(ev TapEvent, now float64, p *Packet)

// Link is a simplex link: a transmitter serializing packets at Bandwidth
// bits/sec feeding a fixed propagation delay, with a queue discipline
// absorbing bursts while the transmitter is busy.
//
// The transmitter is tracked as the time it next falls idle (freeAt)
// rather than with a busy flag. A packet's delivery is scheduled when it
// starts serializing, and one drain event, at the moment the transmitter
// falls idle, reports that packet's departure to the taps and starts the
// next. The drain is armed only while something waits on it — a tap, or a
// queue offered a packet (accepted or refused) since the transmitter last
// fell idle — so a packet crossing an idle, untapped link costs one
// scheduler event, its delivery.
type Link struct {
	net       *Network
	to        *Node
	bw        float64 // bits per second
	delay     float64 // propagation delay, seconds
	queue     Queue
	freeAt    float64 // when the transmitter is next idle
	drainOn   bool    // a drain event is pending
	departing *Packet // the packet the pending drain reports as TapDepart
	taps      []Tap

	// imp is the link's fault state (outage, blackhole, probabilistic
	// impairments), taken from the network's slab only when a fault
	// first touches the link: an unfaulted link pays one nil check per
	// packet and nothing else. Once taken it stays for the link's
	// lifetime — a healed link keeps an inert block — and is dropped by
	// allocLink and scrubbed at Scheduler.Reset.
	imp *linkImpair
}

// linkImpair holds a link's fault-injection state. All fields zero means
// the block is inert and packets flow as if it did not exist.
type linkImpair struct {
	down      bool
	hold      bool // down with DownHold: the queue absorbs instead of dropping
	blackhole bool

	reorder      float64 // P(hold a packet for reorderDelay)
	reorderDelay float64 // seconds
	duplicate    float64 // P(offer a packet twice)
	corrupt      float64 // P(drop a packet as damaged)
	rng          *sim.Rand
}

// DownMode selects what happens to a link's queue while it is down.
type DownMode uint8

const (
	// DownDrop flushes the queue on failure and drops packets arriving
	// while the link is down — an outage that loses traffic.
	DownDrop DownMode = iota
	// DownHold keeps the queued backlog and keeps absorbing arrivals (up
	// to the queue limit) while down; everything serializes when the link
	// comes back up — an outage that pauses traffic.
	DownHold
)

// Impairments are probabilistic per-packet fault processes on one link.
type Impairments struct {
	// Reorder is the probability a packet is held for ReorderDelay
	// before being offered to the transmitter, letting later packets
	// overtake it.
	Reorder float64
	// ReorderDelay is the hold time in seconds for reordered packets.
	ReorderDelay float64
	// Duplicate is the probability a packet is offered twice.
	Duplicate float64
	// Corrupt is the probability a packet is dropped as damaged
	// (surfaced to taps as TapArrive followed by TapDrop).
	Corrupt float64
}

// Per-hop scheduler callbacks are shared package-level functions — the
// packet carries its current link — so the per-packet path builds no
// closures at all, not even per link at setup.
func pktDeliverFn(x any) { p := x.(*Packet); p.link.to.Send(p) }

func linkDrainFn(x any) { x.(*Link).drain() }

// Bandwidth returns the link rate in bits per second.
func (l *Link) Bandwidth() float64 { return l.bw }

// SetBandwidth changes the link rate at the current simulated time. The
// packet being serialized (if any) finishes at the old rate; every later
// packet serializes at the new one. Capacity-aware queue disciplines are
// re-informed of their drain rate.
func (l *Link) SetBandwidth(bw float64) {
	if bw <= 0 {
		panic("netsim: link bandwidth must be positive")
	}
	l.bw = bw
	if s, ok := l.queue.(ptcSetter); ok {
		s.SetPTC(bw / (8 * float64(l.net.nominalPkt)))
	}
}

// SetDelay changes the propagation delay at the current simulated time.
// The delay is sampled when a packet starts serializing (identically on
// tapped and untapped links), so packets already serializing or on the
// wire keep their old arrival times; a large decrease can let later
// packets overtake them, as on a real route change.
func (l *Link) SetDelay(d float64) {
	if d < 0 {
		panic("netsim: link delay must be non-negative")
	}
	l.delay = d
}

// Queue returns the attached queue discipline.
func (l *Link) Queue() Queue { return l.queue }

// AddTap registers an observer for this link's packet events.
func (l *Link) AddTap(t Tap) {
	l.taps = append(l.net.tapMem.Reserve(l.taps, len(l.taps)+1), t)
}

func (l *Link) emit(ev TapEvent, p *Packet) {
	if len(l.taps) == 0 {
		return
	}
	now := l.net.sched.Now()
	for _, t := range l.taps {
		t(ev, now, p)
	}
}

// Send offers a packet to the link. If the transmitter is idle the packet
// starts serializing immediately; otherwise it is queued, and may be
// dropped by the discipline. Dropped packets are returned to the pool.
func (l *Link) Send(p *Packet) {
	p.link = l
	if l.imp != nil && !l.impOffer(p) {
		return
	}
	l.emit(TapArrive, p)
	now := l.net.sched.Now()
	if now >= l.freeAt && !l.drainOn {
		l.start(p, now)
		return
	}
	queued := l.queue.Enqueue(p)
	if !l.drainOn {
		// The transmitter is busy with a packet nothing waits on: arm the
		// drain for the moment it falls idle. A refused packet arms it
		// too, so the discipline sees the transmitter fall idle (RED ages
		// its average from then) whether or not the link is tapped.
		l.armDrain(l.freeAt)
	}
	if !queued {
		l.emit(TapDrop, p)
		l.net.pool.Put(p)
	}
}

// start serializes p from now on. Its delivery time is fixed here, one
// transmission time plus the propagation delay ahead. When a tap or a
// backlog waits on the transmitter, the drain is armed for the moment it
// falls idle, before the delivery is scheduled, so a zero-delay link
// still reports the departure first.
func (l *Link) start(p *Packet, now float64) {
	l.freeAt = now + float64(p.Size)*8/l.bw
	p.deliverAt = l.freeAt + l.delay
	if len(l.taps) > 0 || l.queue.Len() > 0 {
		l.departing = p
		l.armDrain(l.freeAt)
	}
	l.net.sched.AtArg(p.deliverAt, pktDeliverFn, p)
}

// armDrain schedules the link's one pending drain event at time at.
func (l *Link) armDrain(at float64) {
	l.drainOn = true
	l.net.sched.AtArg(at, linkDrainFn, l)
}

// drain fires when the transmitter falls idle: it reports the packet
// that just finished as TapDepart and starts serializing the queue head.
// Send re-arms it on the next offer that finds the transmitter busy.
func (l *Link) drain() {
	l.drainOn = false
	if p := l.departing; p != nil {
		l.departing = nil
		l.emit(TapDepart, p)
	}
	if l.imp != nil && l.imp.down {
		// The transmitter fell idle on a dead link: the backlog (if held)
		// waits for SetUp, which re-arms the drain.
		return
	}
	if next := l.queue.Dequeue(); next != nil {
		l.start(next, l.net.sched.Now())
	}
}

// pktReofferFn re-offers a reorder-held packet to its link. It runs only
// while impairments are configured, so it stays off the common path.
func pktReofferFn(x any) { p := x.(*Packet); p.link.Send(p) }

// impOffer runs the link's fault pipeline on an offered packet. It
// reports whether the packet should continue to the transmitter; when it
// returns false the packet has been consumed (dropped, held for a later
// re-offer, or enqueued on a down link). Send calls it only when a fault
// has touched the link, so none of this weight lands on clean links.
func (l *Link) impOffer(p *Packet) bool {
	im := l.imp
	held := p.impHeld
	p.impHeld = false
	if im.blackhole || (im.down && !im.hold) {
		l.emit(TapArrive, p)
		l.emit(TapDrop, p)
		l.net.pool.Put(p)
		return false
	}
	if im.down {
		// DownHold: bypass the dead transmitter, let the queue absorb the
		// packet; SetUp re-arms the drain.
		l.emit(TapArrive, p)
		if !l.queue.Enqueue(p) {
			l.emit(TapDrop, p)
			l.net.pool.Put(p)
		}
		return false
	}
	if held {
		// A reordered packet (or a duplicate copy) re-offered: it already
		// took its dice rolls, so it goes straight to the transmitter.
		return true
	}
	if im.corrupt > 0 && im.rng.Float64() < im.corrupt {
		l.emit(TapArrive, p)
		l.emit(TapDrop, p)
		l.net.pool.Put(p)
		return false
	}
	if im.duplicate > 0 && im.rng.Float64() < im.duplicate {
		c := l.net.pool.Get()
		*c = *p
		c.impHeld = true // one extra copy, not a geometric cascade
		l.Send(c)
	}
	if im.reorder > 0 && im.rng.Float64() < im.reorder {
		p.impHeld = true
		l.net.sched.AtArg(l.net.sched.Now()+im.reorderDelay, pktReofferFn, p)
		return false
	}
	return true
}

func (l *Link) ensureImp() *linkImpair {
	if l.imp == nil {
		l.imp = l.net.impSlab.Get()
		*l.imp = linkImpair{}
	}
	return l.imp
}

// SetDown takes the link down at the current simulated time. A packet
// already serializing finishes — it is conceptually past the failure
// point — but nothing new starts. With DownDrop the queued backlog is
// dropped immediately and later arrivals drop on arrival; with DownHold
// both are held for the next SetUp. Routing keeps pointing at the link
// either way until Network.RecomputeRoutes reconverges around it.
func (l *Link) SetDown(mode DownMode) {
	im := l.ensureImp()
	im.down = true
	im.hold = mode == DownHold
	if mode == DownDrop {
		for p := l.queue.Dequeue(); p != nil; p = l.queue.Dequeue() {
			l.emit(TapDrop, p)
			l.net.pool.Put(p)
		}
	}
}

// SetUp brings a downed link back up; a held backlog resumes serializing
// immediately. SetUp on a link that is not down is a no-op.
func (l *Link) SetUp() {
	im := l.imp
	if im == nil || !im.down {
		return
	}
	im.down, im.hold = false, false
	if l.queue.Len() > 0 && !l.drainOn {
		l.armDrain(max(l.net.sched.Now(), l.freeAt))
	}
}

// IsDown reports whether the link is currently down.
func (l *Link) IsDown() bool { return l.imp != nil && l.imp.down }

// SetBlackhole makes the link silently eat every offered packet while
// on — the failure mode where a path dies without any routing signal,
// e.g. a one-direction feedback blackout. Unlike SetDown it never holds
// a backlog and is invisible to RecomputeRoutes.
func (l *Link) SetBlackhole(on bool) { l.ensureImp().blackhole = on }

// SetImpairments configures probabilistic reordering, duplication, and
// corruption on the link. rng must be a deterministic scheduler-owned
// source (Scheduler.NewRand) when any probability is positive; the
// all-zero Impairments value clears them.
func (l *Link) SetImpairments(cfg Impairments, rng *sim.Rand) {
	if cfg.Reorder < 0 || cfg.Reorder > 1 || cfg.Duplicate < 0 || cfg.Duplicate > 1 ||
		cfg.Corrupt < 0 || cfg.Corrupt > 1 {
		panic("netsim: impairment probabilities must be in [0, 1]")
	}
	if cfg.ReorderDelay < 0 {
		panic("netsim: reorder delay must be non-negative")
	}
	if (cfg.Reorder > 0 || cfg.Duplicate > 0 || cfg.Corrupt > 0) && rng == nil {
		panic("netsim: impairments need a deterministic rng")
	}
	im := l.ensureImp()
	im.reorder, im.reorderDelay = cfg.Reorder, cfg.ReorderDelay
	im.duplicate, im.corrupt = cfg.Duplicate, cfg.Corrupt
	im.rng = rng
}
