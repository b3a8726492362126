package main

import (
	"sort"
	"time"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
)

// span is one timed interval at a layer boundary. Spans of one cell share
// its Cell id; Parent is the index of the enclosing span, -1 at the root.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Cell    int    `json:"cell"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; main writes them out once at exit. The
// program under test records nothing itself — every span is opened and
// closed here, around a call into a layer's public functions.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: now()} }

func (t *tracer) begin(name string, parent, cell int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Cell: cell, StartNs: now().Sub(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.EndNs = now().Sub(t.epoch).Nanoseconds()
	return time.Duration(s.EndNs - s.StartNs)
}

// in times fn as a child span of parent. A nil tracer just runs fn, so
// the untraced paths can share code with the traced ones.
func (t *tracer) in(name string, parent, cell int, fn func()) time.Duration {
	if t == nil {
		fn()
		return 0
	}
	id := t.begin(name, parent, cell)
	fn()
	return t.end(id)
}

// spanStat is one row of the span summary: how often a span name
// occurred, its total time, and its self time (total minus the time its
// child spans cover).
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	MedianS float64 `json:"median_s"`
}

func (t *tracer) summary() []spanStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	byName := map[string]*spanStat{}
	durs := map[string][]float64{}
	var names []string
	for i, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
			names = append(names, s.Name)
		}
		d := s.EndNs - s.StartNs
		st.Count++
		st.TotalS += float64(d) / 1e9
		st.SelfS += float64(d-child[i]) / 1e9
		durs[s.Name] = append(durs[s.Name], float64(d)/1e9)
	}
	sort.Strings(names)
	out := make([]spanStat, 0, len(names))
	for _, name := range names {
		st := byName[name]
		st.MedianS = median(durs[name])
		out = append(out, *st)
	}
	return out
}

// totalFrom sums, in seconds, the spans named name among those recorded
// from index from on.
func (t *tracer) totalFrom(from int, name string) float64 {
	var ns int64
	for _, s := range t.spans[from:] {
		if s.Name == name {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns) / 1e9
}

// stepUntil is Scheduler.RunUntil(end) spelled with the public Step, so
// the events fired can be counted. A sentinel event at end stops the
// loop; it takes a sequence number but leaves the relative order of all
// other events unchanged, so the simulation is event-for-event the one
// RunUntil runs. Events at exactly end scheduled after the sentinel are
// left for the caller's own RunUntil(end).
func stepUntil(s *sim.Scheduler, end float64) (events int64) {
	done := false
	s.At(end, func() { done = true })
	for !done && s.Step() {
		events++
	}
	if done {
		events-- // the sentinel itself
	}
	return events
}

// pktCounts is what the taps on every link of a traced cell add up to.
type pktCounts struct {
	arrivals, hops, drops int64
	queuePeak             int64 // highest occupancy any tapped queue reached
	tcpData, tcpAcks      int64 // packets originated, by kind
	tfrcData, tfrcFb      int64
	other                 int64 // ON/OFF and CBR background
}

func (c *pktCounts) add(o pktCounts) {
	c.arrivals += o.arrivals
	c.hops += o.hops
	c.drops += o.drops
	c.queuePeak = max(c.queuePeak, o.queuePeak)
	c.tcpData += o.tcpData
	c.tcpAcks += o.tcpAcks
	c.tfrcData += o.tfrcData
	c.tfrcFb += o.tfrcFb
	c.other += o.other
}

// tapAll attaches a counting tap to every simplex link of the network. A
// packet is counted as originated where it is offered to a link leaving
// its own source node; isTFRC tells TFRC data from TCP data by flow id.
func tapAll(nw *netsim.Network, isTFRC func(flow int) bool, c *pktCounts) {
	nodes := nw.Nodes()
	for _, from := range nodes {
		for _, to := range nodes {
			l := from.LinkTo(to)
			if l == nil {
				continue
			}
			src, q := from.ID, l.Queue()
			l.AddTap(func(ev netsim.TapEvent, _ float64, p *netsim.Packet) {
				switch ev {
				case netsim.TapArrive:
					c.arrivals++
					if n := int64(q.Len()); n > c.queuePeak {
						c.queuePeak = n
					}
					if p.Src != src {
						return
					}
					switch p.Kind {
					case netsim.KindData:
						if isTFRC(p.Flow) {
							c.tfrcData++
						} else {
							c.tcpData++
						}
					case netsim.KindAck:
						c.tcpAcks++
					case netsim.KindFeedback:
						c.tfrcFb++
					default:
						c.other++
					}
				case netsim.TapDepart:
					c.hops++
				case netsim.TapDrop:
					c.drops++
				}
			})
		}
	}
}
