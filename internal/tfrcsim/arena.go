package tfrcsim

import (
	"tfrc/internal/core"
	"tfrc/internal/sim"
)

var tfrcArenaID = sim.NewArenaID()

// agentArena pools TFRC agents per scheduler. Agents live for a whole
// scenario, so nothing is handed back mid-cell: ResetArena rewinds the
// slabs when the scheduler is recycled for the next sweep cell, and the
// agents are reused in place.
type agentArena struct {
	senders   sim.Slab[Sender]
	receivers sim.Slab[Receiver]
}

// ResetArena implements sim.Arena. It drops what a caller handed the
// agents — a sender's rate observer, a receiver's state machine with its
// OnLossInterval — so an agent waiting in its slot for the next scenario
// pins nothing of the last one.
func (a *agentArena) ResetArena() {
	a.senders.Each(func(s *Sender) { s.OnRateChange = nil })
	a.receivers.Each(func(r *Receiver) { r.core = core.Receiver{} })
	a.senders.Reset()
	a.receivers.Reset()
}

func arenaOf(s *sim.Scheduler) *agentArena {
	return s.Arena(tfrcArenaID, func() sim.Arena { return &agentArena{} }).(*agentArena)
}
