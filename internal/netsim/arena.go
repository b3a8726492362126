package netsim

import "tfrc/internal/sim"

// netsimArenaID is this package's slot in every scheduler's arena table.
var netsimArenaID = sim.NewArenaID()

// arena is the scheduler-attached store of netsim's per-scenario
// objects, reclaimed wholesale by ResetArena at the next Scheduler.Reset:
// a worker that pins a scheduler rebuilds each sweep cell out of the
// previous cell's entire working set — network, topology, monitors —
// without touching the allocator.
//
// A scenario has one network, one topology builder, at most one dumbbell
// and one to a few monitors: the slabs hold pointers (see sim.Next), so
// a cold cell pays for the objects it builds and not for chunks of them.
type arena struct {
	networks  sim.Slab[*Network]
	topos     sim.Slab[*Topology]
	dumbbells sim.Slab[*Dumbbell]
	flowMons  sim.Slab[*FlowMonitor]
	queueMons sim.Slab[*QueueMonitor]
}

// ResetArena implements sim.Arena: every object ever handed out becomes
// construction stock again.
func (a *arena) ResetArena() {
	a.networks.Reset()
	a.topos.Reset()
	a.dumbbells.Reset()
	a.flowMons.Reset()
	a.queueMons.Reset()
}

func arenaOf(s *sim.Scheduler) *arena {
	return s.Arena(netsimArenaID, func() sim.Arena { return &arena{} }).(*arena)
}
