// Package faults is the deterministic fault-injection engine: a
// JSON-serializable vocabulary of link faults (outages, feedback
// blackholes, delay spikes, bandwidth collapses, probabilistic
// reorder/duplicate/corrupt) that compiles onto the simulator's netsim
// links. The simulated TFRC agents and the real wire endpoints (which
// run over the same links in virtual time) therefore meet the same
// faults through the same one entry point, Apply. A Schedule is a pure
// function of its spec and seed — applying the same schedule to the same
// scenario reproduces the same run byte for byte, at any sweep
// parallelism.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
)

// Kind names one fault action. The set is closed: Validate rejects
// anything else, so serialized schedules fail loudly rather than
// silently skipping a misspelled fault.
type Kind string

// Fault kinds.
const (
	// LinkDown takes the link down (see Fault.Drain for queue semantics).
	LinkDown Kind = "down"
	// LinkUp heals a LinkDown.
	LinkUp Kind = "up"
	// DelaySpike sets the link's propagation delay to Fault.Delay.
	DelaySpike Kind = "delay"
	// BandwidthCollapse sets the link rate to Fault.Bandwidth.
	BandwidthCollapse Kind = "bandwidth"
	// Blackhole silently eats every packet on the link — the
	// per-direction feedback-blackout fault. No routing signal.
	Blackhole Kind = "blackhole"
	// BlackholeOff heals a Blackhole.
	BlackholeOff Kind = "blackhole-off"
	// Impair installs the probabilistic reorder/duplicate/corrupt
	// processes (all-zero probabilities heal a previous Impair).
	Impair Kind = "impair"
)

// Fault is one scheduled fault action on one named link.
type Fault struct {
	// At is the simulated time (seconds) the fault fires.
	At float64 `json:"at"`
	// Link names the simplex link in topology notation ("rl->rr").
	Link string `json:"link"`
	// Kind selects the action.
	Kind Kind `json:"kind"`

	// Drain selects DownHold semantics for LinkDown: the queue holds its
	// backlog (and keeps absorbing arrivals) across the outage instead of
	// dropping it.
	Drain bool `json:"drain,omitempty"`
	// Delay is the new propagation delay (seconds) for DelaySpike.
	Delay float64 `json:"delay,omitempty"`
	// Bandwidth is the new link rate (bits/sec) for BandwidthCollapse.
	Bandwidth float64 `json:"bandwidth,omitempty"`

	// Impair knobs; probabilities in [0, 1], ReorderDelay in seconds.
	Reorder      float64 `json:"reorder,omitempty"`
	ReorderDelay float64 `json:"reorderDelay,omitempty"`
	Duplicate    float64 `json:"duplicate,omitempty"`
	Corrupt      float64 `json:"corrupt,omitempty"`
}

// A fault's durations are at most maxSeconds and its rates at least
// minBandwidth, so the times a link computes from them (an arrival at
// now + delay + reorder delay, a transmitter free at now + size/rate)
// stay finite: a 5e-324 b/s rate or two 1e308 s delays would put an
// event at +Inf mid-run. Neither bound is near a scenario's scale.
const (
	maxSeconds   = 1e9  // about 32 years
	minBandwidth = 1e-6 // bits/sec
)

// Validate checks one fault in isolation. Every bound is written so
// that NaN fails it (NaN compares false), and ±Inf fails too.
func (f *Fault) Validate() error {
	if !(f.At >= 0 && f.At <= math.MaxFloat64) {
		return fmt.Errorf("fault at %v: time must be finite and non-negative", f.At)
	}
	if f.Link == "" {
		return fmt.Errorf("fault at %v: missing link name", f.At)
	}
	switch f.Kind {
	case LinkDown, LinkUp, Blackhole, BlackholeOff:
	case DelaySpike:
		if !(f.Delay >= 0 && f.Delay <= maxSeconds) {
			return fmt.Errorf("fault at %v on %s: delay must be in [0, %g] s, got %v", f.At, f.Link, float64(maxSeconds), f.Delay)
		}
	case BandwidthCollapse:
		if !(f.Bandwidth >= minBandwidth && f.Bandwidth <= math.MaxFloat64) {
			return fmt.Errorf("fault at %v on %s: bandwidth must be finite and at least %g b/s, got %v", f.At, f.Link, float64(minBandwidth), f.Bandwidth)
		}
	case Impair:
		for _, p := range [...]float64{f.Reorder, f.Duplicate, f.Corrupt} {
			if !(p >= 0 && p <= 1) {
				return fmt.Errorf("fault at %v on %s: impair probabilities must be in [0, 1]", f.At, f.Link)
			}
		}
		if !(f.ReorderDelay >= 0 && f.ReorderDelay <= maxSeconds) {
			return fmt.Errorf("fault at %v on %s: reorderDelay must be in [0, %g] s", f.At, f.Link, float64(maxSeconds))
		}
	default:
		return fmt.Errorf("fault at %v on %s: unknown kind %q", f.At, f.Link, f.Kind)
	}
	return nil
}

// Schedule is a full fault program: an ordered list of faults plus the
// seed for any probabilistic impairments. Faults installed at the same
// time fire in slice order, so a schedule is deterministic by
// construction.
type Schedule struct {
	// Seed drives every probabilistic impairment in the schedule (one
	// scheduler-owned generator per Apply).
	Seed int64 `json:"seed,omitempty"`
	// Reroute recomputes routes around down links on every LinkDown and
	// LinkUp — the routing-reconvergence model. Off, routing keeps
	// pointing at the dead link (a layer-2 outage routing cannot see).
	Reroute bool `json:"reroute,omitempty"`
	// Faults fire in slice order at their At times.
	Faults []Fault `json:"faults"`
}

// plainSchedule is a Schedule without its JSON methods.
type plainSchedule Schedule

// MarshalJSON encodes the fields as their tags say; it is the pair of
// UnmarshalJSON.
func (s Schedule) MarshalJSON() ([]byte, error) { return json.Marshal(plainSchedule(s)) }

// UnmarshalJSON decodes a schedule whole: what the JSON leaves out is
// zero, not left over from the schedule decoded into (encoding/json
// reuses a slice's elements in place, so a "down" fault decoded over a
// "bandwidth" one would keep its rate), and an unknown field is an
// error, so a misspelled knob fails as loudly as a misspelled kind.
func (s *Schedule) UnmarshalJSON(b []byte) error {
	var out plainSchedule
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		return err
	}
	*s = Schedule(out)
	return nil
}

// Validate implements the params contract for every fault in the list.
func (s *Schedule) Validate() error {
	for i := range s.Faults {
		if err := s.Faults[i].Validate(); err != nil {
			return fmt.Errorf("faults[%d]: %w", i, err)
		}
	}
	return nil
}

// Empty reports whether the schedule does nothing.
func (s *Schedule) Empty() bool { return len(s.Faults) == 0 }

// needsRNG reports whether any fault draws random variates.
func (s *Schedule) needsRNG() bool {
	for i := range s.Faults {
		f := &s.Faults[i]
		if f.Kind == Impair && (f.Reorder > 0 || f.Duplicate > 0 || f.Corrupt > 0) {
			return true
		}
	}
	return false
}

// seedMix decorrelates the schedule's impairment stream from other
// consumers of the same base seed (jitter, RED, traffic sources).
const seedMix = 0x5fe41c6b

// Apply validates the schedule and compiles it onto a topology: every
// fault becomes a simulation event on the topology's scheduler. An
// invalid fault or a misspelled link (resolved through
// Topology.LinkByName) panics here naming the fault's index, never
// mid-run. Probabilistic impairments share one scheduler-owned
// generator seeded from Schedule.Seed.
func (s *Schedule) Apply(t *netsim.Topology) {
	if s.Empty() {
		return
	}
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("faults: %v", err))
	}
	nw := t.Network()
	sched := nw.Scheduler()
	var rng *sim.Rand
	if s.needsRNG() {
		rng = sched.NewRand(s.Seed ^ seedMix)
	}
	reroute := s.Reroute
	for i := range s.Faults {
		f := s.Faults[i] // copied so the closure does not pin the schedule
		l := linkOf(t, i, f.Link)
		switch f.Kind {
		case LinkDown:
			mode := netsim.DownDrop
			if f.Drain {
				mode = netsim.DownHold
			}
			sched.At(f.At, func() {
				l.SetDown(mode)
				if reroute {
					nw.RecomputeRoutes()
				}
			})
		case LinkUp:
			sched.At(f.At, func() {
				l.SetUp()
				if reroute {
					nw.RecomputeRoutes()
				}
			})
		case DelaySpike:
			sched.At(f.At, func() { l.SetDelay(f.Delay) })
		case BandwidthCollapse:
			sched.At(f.At, func() { l.SetBandwidth(f.Bandwidth) })
		case Blackhole:
			sched.At(f.At, func() { l.SetBlackhole(true) })
		case BlackholeOff:
			sched.At(f.At, func() { l.SetBlackhole(false) })
		case Impair:
			sched.At(f.At, func() {
				l.SetImpairments(netsim.Impairments{
					Reorder:      f.Reorder,
					ReorderDelay: f.ReorderDelay,
					Duplicate:    f.Duplicate,
					Corrupt:      f.Corrupt,
				}, rng)
			})
		}
	}
}

// linkOf resolves faults[i]'s link, re-raising LinkByName's panic with
// the fault's index in front.
func linkOf(t *netsim.Topology, i int, name string) *netsim.Link {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("faults: faults[%d]: %v", i, r))
		}
	}()
	return t.LinkByName(name)
}

// Blackout returns a schedule that blackholes the named link for
// [from, to) — with the link carrying TFRC feedback, a total feedback
// outage.
func Blackout(link string, from, to float64) Schedule {
	return Schedule{Faults: []Fault{
		{At: from, Link: link, Kind: Blackhole},
		{At: to, Link: link, Kind: BlackholeOff},
	}}
}

// Flap returns a schedule that takes the named link down n times: down
// at start + i*period, back up downFor seconds later. drain selects
// hold-the-queue outage semantics; reroute makes each transition
// recompute routes around the dead link.
func Flap(link string, start, period, downFor float64, n int, drain, reroute bool) Schedule {
	s := Schedule{Reroute: reroute}
	for i := 0; i < n; i++ {
		at := start + float64(i)*period
		s.Faults = append(s.Faults,
			Fault{At: at, Link: link, Kind: LinkDown, Drain: drain},
			Fault{At: at + downFor, Link: link, Kind: LinkUp})
	}
	return s
}
