package netsim

import (
	"math"

	"tfrc/internal/sim"
)

// REDConfig parameterizes Random Early Detection per Floyd & Jacobson
// (1993) as the paper's ns-2 simulations run it: "gentle" (the drop
// probability ramps from MaxP to 1 between MaxThresh and 2·MaxThresh)
// and with ns-2's inter-drop spreading (no second early drop within
// about 1/p packets of the last).
type REDConfig struct {
	MinThresh float64 // avg queue (pkts) below which no packet is marked
	MaxThresh float64 // avg queue at which mark probability reaches MaxP
	MaxP      float64 // mark probability at MaxThresh
	Wq        float64 // EWMA weight for the average queue estimator
	Limit     int     // physical buffer limit in packets
}

// DefaultRED mirrors the parameters in the paper's Figure 8 footnote:
// min_thresh 25, max_thresh 5·min, max_p 0.1.
func DefaultRED(limit int) REDConfig {
	return REDConfig{
		MinThresh: 25,
		MaxThresh: 125,
		MaxP:      0.1,
		Wq:        0.002,
		Limit:     limit,
	}
}

// RED is a Random Early Detection queue. The average queue size is updated
// on every arrival, with idle-time compensation driven by the link's
// packet transmission rate (set via SetPTC when the queue is attached to a
// link).
type RED struct {
	fifo
	cfg REDConfig

	rng *sim.Rand
	now func() float64

	avg       float64
	count     int // packets since the last early drop
	idleStart float64
	idle      bool
	ptc       float64 // link capacity in packets/sec for idle compensation
}

// validateRED panics on an unusable configuration; both construction
// paths share it.
func validateRED(cfg REDConfig) {
	if cfg.Limit < 1 {
		panic("netsim: RED limit must be ≥ 1")
	}
	if cfg.MaxThresh <= cfg.MinThresh {
		panic("netsim: RED max threshold must exceed min threshold")
	}
	if cfg.Wq <= 0 || cfg.Wq > 1 {
		panic("netsim: RED Wq must be in (0, 1]")
	}
}

// NewRED returns a RED queue. now supplies the current simulated time and
// rng drives the early-drop coin flips.
func NewRED(cfg REDConfig, now func() float64, rng *sim.Rand) *RED {
	validateRED(cfg)
	return &RED{cfg: cfg, rng: rng, now: now, idle: true}
}

// newRED is the arena-backed variant used by the topology layer: the
// struct comes from the network's queue slab and keeps the ring a
// previous life of the slot grew, and the clock closure is the
// network's shared one — all recycled across Release/New.
func (nw *Network) newRED(cfg REDConfig, rng *sim.Rand) *RED {
	validateRED(cfg)
	q := nw.redSlab.Get()
	*q = RED{cfg: cfg, rng: rng, now: nw.nowFn, idle: true, fifo: q.recycled(&nw.ringMem)}
	return q
}

// SetPTC informs the queue of the outbound link capacity in packets per
// second, used to age the average during idle periods. Link.SetQueue calls
// this automatically.
func (q *RED) SetPTC(pktPerSec float64) { q.ptc = pktPerSec }

// Enqueue implements Queue.
func (q *RED) Enqueue(p *Packet) bool {
	q.updateAvg()
	if q.n >= q.cfg.Limit {
		q.count = 0
		return false // buffer overflow: forced drop
	}
	if q.dropEarly() {
		return false
	}
	q.push(p)
	return true
}

func (q *RED) updateAvg() {
	if q.idle {
		// The queue has been empty: decay the average as if m small
		// packets had passed through an empty queue.
		m := 0.0
		if q.ptc > 0 {
			m = (q.now() - q.idleStart) * q.ptc
		}
		q.avg *= math.Pow(1-q.cfg.Wq, m)
		q.idle = false
	}
	q.avg = (1-q.cfg.Wq)*q.avg + q.cfg.Wq*float64(q.n)
}

func (q *RED) dropEarly() bool {
	cfg := &q.cfg
	switch {
	case q.avg < cfg.MinThresh:
		q.count = -1
		return false
	case q.avg < cfg.MaxThresh:
		q.count++
		pb := cfg.MaxP * (q.avg - cfg.MinThresh) / (cfg.MaxThresh - cfg.MinThresh)
		return q.flip(pb)
	case q.avg < 2*cfg.MaxThresh:
		q.count++
		pb := cfg.MaxP + (q.avg-cfg.MaxThresh)/cfg.MaxThresh*(1-cfg.MaxP)
		return q.flip(pb)
	default:
		q.count = 0
		return true
	}
}

// flip applies the ns-2 inter-drop spreading: a drop is suppressed until
// count·pb ≥ 1, making inter-drop gaps closer to uniform than geometric.
func (q *RED) flip(pb float64) bool {
	if pb <= 0 {
		return false
	}
	cp := float64(q.count) * pb
	if cp < 1 {
		return false
	}
	pa := pb / (2 - cp)
	if pa < 0 {
		pa = 1
	}
	if q.rng.Float64() < pa {
		q.count = 0
		return true
	}
	return false
}

// Dequeue implements Queue.
func (q *RED) Dequeue() *Packet {
	p := q.pop()
	if q.n == 0 && !q.idle {
		q.idle = true
		q.idleStart = q.now()
	}
	return p
}

// Len implements Queue.
func (q *RED) Len() int { return q.n }
