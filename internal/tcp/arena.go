package tcp

import "tfrc/internal/sim"

var tcpArenaID = sim.NewArenaID()

// agentArena is the scheduler-attached pool of TCP agents. Long-lived
// senders and sinks are reclaimed wholesale at the next Scheduler.Reset;
// short-lived ones (mice sessions) can be handed back mid-scenario via
// Release, so a 5000-second cell with thousands of web-mouse transfers
// churns a bounded set of slots instead of growing without limit.
type agentArena struct {
	senders sim.Slab[Sender]
	sinks   sim.Slab[Sink]
}

// ResetArena implements sim.Arena.
func (a *agentArena) ResetArena() {
	a.senders.Reset()
	a.sinks.Reset()
}

func arenaOf(s *sim.Scheduler) *agentArena {
	return s.Arena(tcpArenaID, func() sim.Arena { return &agentArena{} }).(*agentArena)
}
