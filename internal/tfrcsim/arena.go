package tfrcsim

import "tfrc/internal/sim"

var tfrcArenaID = sim.NewArenaID()

// agentArena pools TFRC agents per scheduler. Agents live for a whole
// scenario, so nothing is handed back mid-cell: ResetArena rewinds the
// slabs when the scheduler is recycled for the next sweep cell, and the
// agents are reused in place.
type agentArena struct {
	senders   sim.Slab[Sender]
	receivers sim.Slab[Receiver]
}

// ResetArena implements sim.Arena.
func (a *agentArena) ResetArena() {
	a.senders.Reset()
	a.receivers.Reset()
}

func arenaOf(s *sim.Scheduler) *agentArena {
	return s.Arena(tfrcArenaID, func() sim.Arena { return &agentArena{} }).(*agentArena)
}
