package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// sweepWorkers is the worker count of every sweep the benchmark runs, and
// the GOMAXPROCS its children run under.
const sweepWorkers = 2

// childArgs is what the parent hands a child process, as JSON in one
// flag. A child runs one workload (or the kernels) and prints one
// childResult.
type childArgs struct {
	Workload string  `json:"workload"` // "" runs the kernels
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"` // this child's share of the measuring time
	Trace    bool    `json:"trace"`
	Quick    bool    `json:"quick"`
	Flows    int     `json:"flows"`   // off-contract manyflows population, 0 = standard
	Spawned  int64   `json:"spawned"` // parent's clock just before exec, unix ns
	Tmp      string  `json:"tmp"`     // scratch root for files a workload writes
}

func (a childArgs) sizing() sizing {
	sz := standardSizing()
	if a.Quick {
		sz = quickSizing()
	}
	if a.Flows > 0 {
		sz.ManyFlows = a.Flows
	}
	return sz
}

// childResult is one child's measurements.
type childResult struct {
	Workload string  `json:"workload"`
	Cells    int     `json:"cells"` // per repeat
	Pkts     float64 `json:"pkts"`  // per repeat
	Digest   string  `json:"sim_digest"`
	// Attempted and Failed count cells over every repeat the child ran,
	// the warm-up included.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	SetupS    float64  `json:"setup_s"`
	Samples   []sample `json:"samples,omitempty"`
	PeakRSS   int64    `json:"peak_rss_bytes"`
	// Layer holds the kernels child's metrics, or a traced child's.
	Layer map[string]float64 `json:"layer,omitempty"`
	// Spans are a traced child's raw spans, kept in memory until it ends.
	Spans []span `json:"spans,omitempty"`
}

func runChild(a childArgs) (childResult, error) {
	if a.Workload == "" {
		return childResult{Layer: runKernels(a.sizing().KernelDiv), PeakRSS: peakRSS()}, nil
	}
	info, ok := findWorkload(a.Workload)
	if !ok {
		return childResult{}, fmt.Errorf("unknown workload %q", a.Workload)
	}
	w, err := info.open(a.sizing(), a.Seed, a.Tmp)
	if err != nil {
		return childResult{}, fmt.Errorf("%s: set-up: %w", a.Workload, err)
	}

	c := &child{w: w, out: childResult{Workload: a.Workload, Cells: w.cells()}}
	// The warm-up repeat fills arenas and pools, fixes the bytes every
	// later repeat must reproduce, and is the last part of set-up.
	warm := w.repeat()
	c.canon = w.canon(warm)
	sum := sha256.Sum256(c.canon)
	c.out.Digest = hex.EncodeToString(sum[:])
	c.out.Pkts = c.verify(warm)
	c.out.SetupS = float64(now().UnixNano()-a.Spawned) / 1e9

	if a.Trace {
		err = c.traced(a)
	} else {
		c.timed(a.Seconds)
	}
	c.out.PeakRSS = peakRSS()
	return c.out, err
}

type child struct {
	w     workload
	canon []byte // the warm-up repeat's result bytes
	out   childResult
}

// verify counts a finished repeat: its bytes must equal the warm-up's
// (the determinism check) and pass the workload's invariants.
func (c *child) verify(res any) (pkts float64) {
	got := c.w.canon(res)
	pkts, failed := c.w.check(res, got)
	if !bytes.Equal(got, c.canon) {
		failed = c.w.cells()
	}
	c.out.Attempted += c.w.cells()
	c.out.Failed += failed
	return pkts
}

// timed runs identical repeats until the child's share of the measuring
// time is spent, to the nearest repeat: another one starts only if at
// least half of it fits.
func (c *child) timed(seconds float64) {
	start := now()
	for last := 0.0; len(c.out.Samples) == 0 || now().Sub(start).Seconds()+last/2 < seconds; {
		var res any
		s := measure(func() { res = c.w.repeat() })
		c.out.Samples = append(c.out.Samples, s)
		c.verify(res)
		last = float64(s.WallNs) / 1e9
	}
}

// traced is the per-layer pass: a few untraced repeats for reference,
// then the instrumented replica, then one more replica with a tap on
// every link for the packet counts.
func (c *child) traced(a childArgs) error {
	var ref []float64
	for start := now(); len(ref) == 0 || (now().Sub(start).Seconds() < 0.15*a.Seconds && len(ref) < 9); {
		t0 := now()
		res := c.w.repeat()
		ref = append(ref, now().Sub(t0).Seconds())
		c.verify(res)
	}
	untraced := fast(ref)

	tr := newTracer()
	var (
		walls, runS []float64
		st          tracedStats
	)
	for start := now(); len(walls) == 0 || (now().Sub(start).Seconds() < 0.3*a.Seconds && len(walls) < 9); {
		from := len(tr.spans)
		root := tr.begin("repeat", -1, -1)
		var res any
		res, st = c.w.traced(tr, root, false)
		walls = append(walls, tr.end(root).Seconds())
		runS = append(runS, tr.totalFrom(from, "run"))
		c.verify(res)
	}

	spans := map[string]spanStat{}
	for _, st := range tr.summary() {
		spans[st.Name] = st
	}
	m := map[string]float64{"trace.overhead_frac": fast(walls)/untraced - 1}
	for name, span := range map[string]string{ // per cell, or per call
		"exp.build_s":          "build",
		"exp.harvest_s":        "harvest",
		"exp.release_s":        "release",
		"experiment.run_s":     "experiment.run",
		"experiment.marshal_s": "experiment.marshal",
	} {
		m[name] = spans[span].MedianS
	}
	for name, span := range map[string]string{ // all of one repeat's calls
		"shard.run_s":            "shard.run",
		"shard.envelope_write_s": "shard.envelope_write",
		"shard.envelope_read_s":  "shard.envelope_read",
		"shard.merge_s":          "shard.merge",
		"shard.reduce_s":         "shard.reduce",
	} {
		m[name] = spans[span].TotalS / float64(len(walls))
	}

	if c.w.flows() > 0 {
		m["sim.events"] = float64(st.events)
		m["sim.run_s"] = fast(runS)
		m["sim.run_ns_per_event"] = fast(runS) * 1e9 / float64(st.events)

		// The counting pass keeps its spans to itself: taps on every link
		// slow the loop, so its times would not describe the untraced run.
		res, counted := c.w.traced(newTracer(), -1, true)
		c.verify(res)
		n := counted.counts
		m["netsim.hops"] = float64(n.hops)
		m["netsim.drops"] = float64(n.drops)
		m["netsim.drop_frac"] = float64(n.drops) / float64(max(n.arrivals, 1))
		m["netsim.queue_peak_pkts"] = float64(n.queuePeak)
		m["tcp.data_pkts"] = float64(n.tcpData)
		m["tcp.acks"] = float64(n.tcpAcks)
		m["tfrcsim.data_pkts"] = float64(n.tfrcData)
		m["tfrcsim.feedback_pkts"] = float64(n.tfrcFb)
		m["exp.live_heap_bytes"] = float64(counted.liveHeap)
		m["exp.live_heap_bytes_per_flow"] = float64(counted.liveHeap) / float64(c.w.flows())
	}
	if g, ok := c.w.(*grid); ok {
		extra, err := g.gridExtras(untraced, m["shard.run_s"])
		if err != nil {
			return fmt.Errorf("%s: grid extras: %w", c.out.Workload, err)
		}
		for name, v := range extra {
			m[name] = v
		}
	}
	c.out.Layer = m
	c.out.Spans = tr.spans //tfrclint:allow releasecheck the tracer's slice is the benchmark's own, no arena behind it
	return nil
}
