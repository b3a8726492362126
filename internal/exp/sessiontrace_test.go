package exp

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/traffic"
)

// The session-trace goldens were written by the commit before mice
// senders started going back to the arena the moment they finish and
// sinks started taking in-order data without touching their range set.
// Both are storage changes: which struct a session gets may differ, what
// it does on the wire may not, down to the last retransmission of the
// last mouse.

// sessionLogger returns an observer that writes one line per session
// event to w. Floats print in their shortest exact form, so equal bytes
// mean equal bits.
func sessionLogger(w *bytes.Buffer) func(traffic.SessionEvent) {
	kinds := [...]string{
		traffic.SessionStart:   "start",
		traffic.SessionDone:    "done",
		traffic.SessionEvicted: "evict",
	}
	return func(e traffic.SessionEvent) {
		fmt.Fprintf(w, "%s t=%s flow=%d slot=%d size=%d sent=%d rtx=%d timeouts=%d sink=%d\n",
			kinds[e.Kind], exact(e.At), e.Flow, e.Slot, e.Size, e.Sent, e.Rtx, e.Timeouts, e.Received)
	}
}

func exact(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func logSeries(w *bytes.Buffer, name string, series [][]float64) {
	for i, s := range series {
		var sum float64
		for _, v := range s {
			sum += v
		}
		fmt.Fprintf(w, "%s[%d] bins=%d bytes=%s\n", name, i, len(s), exact(sum))
	}
}

func TestFootprintCellSessionTrace(t *testing.T) {
	var log bytes.Buffer
	sched := sim.NewScheduler()
	traffic.ObserveSessions(sched, sessionLogger(&log))
	b, mon := buildFootprintCell(sched, 7)
	res := b.Run(footprintDuration)
	arrivals, departs, drops := mon.Stats()
	fmt.Fprintf(&log, "monitor r1->r2 arrivals=%d departs=%d drops=%d droprate=%s\n",
		arrivals, departs, drops, exact(res.DropRate))
	logSeries(&log, "tcp", res.TCPSeries)
	logSeries(&log, "tfrc", res.TFRCSeries)
	b.Release()
	compareGolden(t, "footprint_sessions.golden", log.Bytes())
}

// TestScenarioSessionTrace runs RunScenario's own cell with a mice load
// heavy enough, on a link slow enough, that the 64 port slots come round
// several times and some transfers are still alive when theirs does.
func TestScenarioSessionTrace(t *testing.T) {
	var log bytes.Buffer
	sched := sim.NewScheduler()
	traffic.ObserveSessions(sched, sessionLogger(&log))
	res := runScenarioCell(sched, Scenario{
		NTCP: 2, NTFRC: 2,
		BottleneckBW: 1.5e6,
		Queue:        netsim.QueueDropTail,
		OnOffSources: 2,
		MiceLoad:     0.6,
		Duration:     60,
		Warmup:       10,
		Seed:         11,
	})
	if !bytes.Contains(log.Bytes(), []byte("evict ")) {
		t.Error("no straggler was evicted: the scenario no longer covers slot reuse over a live transfer")
	}
	fmt.Fprintf(&log, "droprate=%s utilization=%s queue mean=%s max=%d samples=%d\n",
		exact(res.DropRate), exact(res.Utilization), exact(res.QueueMean), res.QueueMax, len(res.Queue))
	logSeries(&log, "tcp", res.TCPSeries)
	logSeries(&log, "tfrc", res.TFRCSeries)
	compareGolden(t, "scenario_sessions.golden", log.Bytes())
}
