package cc

import (
	"fmt"

	"tfrc/internal/sim"
)

var ccArenaID = sim.NewArenaID()

// arena is the scheduler-attached pool of controllers, one slab per
// kind: controllers are values in slabs, not individually heap-allocated
// structs. Like the agent arenas, everything ever handed
// out becomes available again at Scheduler.Reset.
type arena struct {
	reno       sim.Slab[Reno]
	vegas      sim.Slab[Vegas]
	ledbat     sim.Slab[LEDBAT]
	relentless sim.Slab[Relentless]
}

// ResetArena implements sim.Arena.
func (a *arena) ResetArena() {
	a.reno.Reset()
	a.vegas.Reset()
	a.ledbat.Reset()
	a.relentless.Reset()
}

func arenaOf(s *sim.Scheduler) *arena {
	return s.Arena(ccArenaID, func() sim.Arena { return &arena{} }).(*arena)
}

// New returns a controller for cfg, drawn from the scheduler's
// controller arena and re-initialized for a fresh connection. The
// config must name a controller (a zero Config selects reno); an
// unknown name panics — validate configs with Config.Validate at the
// parameter boundary. Every kind draws from its own slab, so a warm
// arena makes New allocation-free.
func New(s *sim.Scheduler, cfg Config, maxWindow float64) Controller {
	a := arenaOf(s)
	switch cfg.Name.String() {
	case "reno":
		r := a.reno.Get()
		r.Init(maxWindow)
		r.home = a
		return r
	case "vegas":
		v := a.vegas.Get()
		v.Init(cfg.Vegas, maxWindow)
		v.home = a
		return v
	case "ledbat":
		l := a.ledbat.Get()
		l.Init(cfg.LEDBAT, maxWindow)
		l.home = a
		return l
	case "relentless":
		r := a.relentless.Get()
		r.Init(cfg.Relentless, maxWindow)
		r.home = a
		return r
	}
	panic(fmt.Sprintf("cc: unknown congestion controller %q", cfg.Name))
}
