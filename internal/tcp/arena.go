package tcp

import "tfrc/internal/sim"

var tcpArenaID = sim.NewArenaID()

// agentArena is the scheduler-attached pool of TCP agents. Long-lived
// senders and sinks are reclaimed wholesale at the next Scheduler.Reset;
// short-lived ones (mice sessions) are handed back mid-scenario via
// Release — a sender the moment its transfer completes, a sink when its
// port is reused — so a cell with thousands of web-mouse transfers holds
// as many sender slots as it ever had transfers in flight. The range
// sets of every sink and SACK scoreboard are cut from one carver; a
// segment stays with the slot whose set took it.
type agentArena struct {
	senders sim.Slab[Sender]
	sinks   sim.Slab[Sink]
	ranges  sim.Carver[srange] // agent slots retain the segments their range sets took
}

// ResetArena implements sim.Arena.
func (a *agentArena) ResetArena() {
	a.senders.Reset()
	a.sinks.Reset()
}

func arenaOf(s *sim.Scheduler) *agentArena {
	return s.Arena(tcpArenaID, func() sim.Arena { return &agentArena{} }).(*agentArena)
}
