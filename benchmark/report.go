package main

import (
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"strings"
)

const reportSchema = "tfrc.benchmark.result/v1"

// report is one full run: what -out/result.json holds and what compare
// reads.
type report struct {
	Schema    string           `json:"schema"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Quick     bool             `json:"quick,omitempty"`
	WallS     float64          `json:"wall_s"`
	Host      host             `json:"host"`
	EndToEnd  []metricDef      `json:"end_to_end"`
	PerLayer  []metricDef      `json:"per_layer"`
	Workloads []workloadReport `json:"workloads"`
	// Kernels are the workload-independent per-layer metrics.
	Kernels map[string]float64 `json:"kernels"`
}

// host records where the numbers were taken: they compare only between
// runs on the same host.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Kernel     string `json:"kernel"`
	// ScratchFS is the filesystem type under shardmerge's checkpoint and
	// envelope files, where its fsyncs land.
	ScratchFS string `json:"scratch_fs"`
}

func hostInfo(scratch string) host {
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: sweepWorkers,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
	if out, err := exec.Command("uname", "-sr").Output(); err == nil {
		h.Kernel = strings.TrimSpace(string(out))
	}
	if out, err := exec.Command("stat", "-f", "-c", "%T", scratch).Output(); err == nil {
		h.ScratchFS = strings.TrimSpace(string(out))
	}
	return h
}

// workloadReport is one workload's untraced pass, and in a full run its
// traced pass too.
type workloadReport struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Correct is false when a cell failed a check, when two processes
	// disagreed on the simulation, or when the traced replica did.
	Correct        bool    `json:"correct"`
	Cells          int     `json:"cells"`
	Pkts           float64 `json:"pkts"`
	Digest         string  `json:"sim_digest"`
	AttemptedCells int     `json:"attempted_cells"`
	FailedCells    int     `json:"failed_cells"`
	// RepeatWallS is the per-repeat wall time over every timed repeat of
	// every child; every rate is computed from its Fast value.
	RepeatWallS dist               `json:"repeat_wall_s"`
	SetupS      []float64          `json:"setup_s_per_child"`
	PeakRSS     int64              `json:"peak_rss_bytes"`
	Metrics     map[string]float64 `json:"metrics"`
	Traced      *tracedReport      `json:"traced,omitempty"`
}

// fill computes the end-to-end metrics from the pooled repeat samples.
func (w *workloadReport) fill(samples []sample) {
	col := func(get func(sample) int64) []float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = float64(get(s))
		}
		return xs
	}
	wall := col(func(s sample) int64 { return s.WallNs })
	for i := range wall {
		wall[i] /= 1e9
	}
	w.RepeatWallS = summarize(wall)
	cells := float64(w.Cells)
	w.Metrics = map[string]float64{
		"setup_s":              fast(w.SetupS),
		"pkts_per_s":           w.Pkts / w.RepeatWallS.Fast,
		"cells_per_s":          cells / w.RepeatWallS.Fast,
		"cpu_ns_per_pkt":       fast(col(func(s sample) int64 { return s.CPUNs })) / w.Pkts,
		"allocs_per_cell":      median(col(func(s sample) int64 { return s.Mallocs })) / cells,
		"alloc_bytes_per_cell": median(col(func(s sample) int64 { return s.AllocBytes })) / cells,
	}
}

func (w *workloadReport) print(out io.Writer) {
	d := w.RepeatWallS
	fmt.Fprintf(out, "\n%s  cells %d  failed_cells %d of %d  pkts %.0f  sim_digest %.16s\n",
		w.Name, w.Cells, w.FailedCells, w.AttemptedCells, w.Pkts, w.Digest)
	if why, off := offContract[w.Name]; off {
		fmt.Fprintf(out, "  off-contract (reported, not in BENCHMARK.json): %s\n", why)
	}
	tail := fmt.Sprintf("max %.4f", d.Tail)
	if d.TailPct > 0 {
		tail = fmt.Sprintf("p%.1f %.4f", d.TailPct, d.Tail)
	}
	fmt.Fprintf(out, "  repeat wall: fastest %.4f s  median %.4f  quartiles %.4f..%.4f  %s  n %d\n",
		d.Fast, d.Median, d.Q1, d.Q3, tail, d.N)
	printMetrics(out, "", endToEnd, w.Metrics)
}

func printMetrics(out io.Writer, title string, defs []metricDef, vals map[string]float64) {
	if title != "" {
		fmt.Fprintf(out, "\n%s\n", title)
	}
	for _, d := range defs {
		fmt.Fprintf(out, "  %-34s %16.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}
}

// tracedReport is one workload's traced pass.
type tracedReport struct {
	Digest         string             `json:"sim_digest"`
	Pkts           float64            `json:"pkts"`
	AttemptedCells int                `json:"attempted_cells"`
	FailedCells    int                `json:"failed_cells"`
	Metrics        map[string]float64 `json:"metrics"`
	Ledger         []ledgerTerm       `json:"ledger,omitempty"`
	SpanSummary    []spanStat         `json:"span_summary"`
	spans          []span
}

// ledgerTerm is one product of a traced count and a kernel cost. Every
// kernel cost here is inclusive of the scheduler events the operation
// causes, so the terms add up against sim.run_s without a separate
// scheduler term.
type ledgerTerm struct {
	Term   string  `json:"term"`
	Count  float64 `json:"count"`
	Kernel string  `json:"kernel"`
	NsEach float64 `json:"ns_each"`
	Ns     float64 `json:"ns"`
	Covers string  `json:"covers"`
}

// ledger explains a workload's event-loop time from its packet counts.
// A TCP data packet costs what tcp.flow_ns_per_pkt measures: the sender,
// sink and controller, one untapped data hop and the ACK's hop back. A
// TFRC data packet likewise, with its share of feedback. Every hop beyond
// those (the access links and routers a two-node kernel does not have)
// costs one untapped link hop. What the sum leaves unexplained is the
// tapped bottleneck's second event, the queue disciplines, the monitors
// and cache effects; the in-program event-kind tracing of a later issue is
// what will close it.
func ledger(workload string, traced, kernels map[string]float64) []ledgerTerm {
	if traced["sim.run_s"] == 0 {
		return nil
	}
	tcpKernel, tcpNs := "tcp.flow_ns_per_pkt.reno", kernels["tcp.flow_ns_per_pkt.reno"]
	if workload == "zoo-lossy" {
		tcpKernel, tcpNs = "mean of tcp.flow_ns_per_pkt.*", 0
		for _, name := range zooControllers {
			tcpNs += kernels["tcp.flow_ns_per_pkt."+string(name)] / float64(len(zooControllers))
		}
	}
	tcpData, tfrcData := traced["tcp.data_pkts"], traced["tfrcsim.data_pkts"]
	extraHops := traced["netsim.hops"] - 2*tcpData - tfrcData - traced["tfrcsim.feedback_pkts"]
	if extraHops < 0 {
		extraHops = 0
	}
	term := func(name string, count float64, kernel string, each float64, covers string) ledgerTerm {
		return ledgerTerm{name, count, kernel, each, count * each, covers}
	}
	return []ledgerTerm{
		term("tcp packets", tcpData, tcpKernel, tcpNs,
			"inclusive: scheduler, sender+sink+controller, one data hop, one ACK hop"),
		term("tfrc packets", tfrcData, "tfrcsim.flow_ns_per_pkt", kernels["tfrcsim.flow_ns_per_pkt"],
			"inclusive: scheduler, sender+receiver, one data hop, its share of feedback"),
		term("further hops", extraHops, "netsim.link_hop_ns.untapped", kernels["netsim.link_hop_ns.untapped"],
			"inclusive: one scheduler event per hop; exclusive of agents"),
	}
}
