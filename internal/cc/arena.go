package cc

import "tfrc/internal/sim"

var ccArenaID = sim.NewArenaID()

// arena is the scheduler-attached pool of controllers, one slab per
// built-in kind: controllers are values in slabs, not individually
// heap-allocated structs. Like the agent arenas, everything ever handed
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
