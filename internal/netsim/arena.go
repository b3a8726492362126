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
// A scenario has one network, one topology builder and at most one
// dumbbell, so each is a single retained object (see claim). Monitors
// come one to a few per cell: their slabs hold pointers, so a cold cell
// pays for the monitors it builds and not for a chunk of eight.
type arena struct {
	network  *Network
	topo     *Topology
	dumbbell *Dumbbell

	netUsed, topoUsed, dbUsed bool // claimed since the last Reset

	flowMons  sim.Slab[*FlowMonitor]
	queueMons sim.Slab[*QueueMonitor]
	utilMons  sim.Slab[*UtilizationMonitor]
}

// ResetArena implements sim.Arena: every object ever handed out becomes
// construction stock again.
func (a *arena) ResetArena() {
	a.netUsed, a.topoUsed, a.dbUsed = false, false, false
	a.flowMons.Reset()
	a.queueMons.Reset()
	a.utilMons.Reset()
}

func arenaOf(s *sim.Scheduler) *arena {
	return s.Arena(netsimArenaID, func() sim.Arena { return &arena{} }).(*arena)
}

// claim hands out the arena's retained object, allocating it on the
// arena's first scenario. A second claim before the next Reset — two
// networks on one scheduler — gets an object of its own that the arena
// does not keep.
func claim[T any](retained **T, used *bool) *T {
	if *used {
		return new(T)
	}
	*used = true
	if *retained == nil {
		*retained = new(T)
	}
	return *retained
}

// next returns the object in the slab's next slot, allocating it the
// first time the slot is issued.
func next[T any](s *sim.Slab[*T]) *T {
	p := s.Get()
	if *p == nil {
		*p = new(T)
	}
	return *p
}
