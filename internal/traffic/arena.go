package traffic

import "tfrc/internal/sim"

var trafficArenaID = sim.NewArenaID()

// genArena pools the background-traffic generators per scheduler. They
// all live for a whole scenario, so ResetArena reclaims everything when
// the scheduler is recycled for the next sweep cell. A cell has a few of
// each at most: the slabs hold pointers, so a cold cell pays for the
// generators it builds and not for a chunk of eight.
type genArena struct {
	onoffs sim.Slab[*OnOff]
	cbrs   sim.Slab[*CBR]
	sinks  sim.Slab[*Sink]
	mice   sim.Slab[*Mice]

	observe func(SessionEvent) // ObserveSessions' setting, read by every generator as it reports; not reset
}

// ResetArena implements sim.Arena.
func (a *genArena) ResetArena() {
	a.onoffs.Reset()
	a.cbrs.Reset()
	a.sinks.Reset()
	a.mice.Reset()
}

func arenaOf(s *sim.Scheduler) *genArena {
	return s.Arena(trafficArenaID, func() sim.Arena { return &genArena{} }).(*genArena)
}
