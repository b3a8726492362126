package main

// metricDef names one metric, its unit and which way is better. The lists
// below are the benchmark's vocabulary: BENCHMARK.json, the README tables
// and every result file carry exactly these names (the test holds them
// together).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the simulator pays per packet, per cell and
// per sweep. Bound is the share of the parent's median by which a metric
// may worsen before a change counts as a regression. The three timing
// bounds are 0.25, the most the contract allows, not the 0.10 first asked
// for: a bound must clear the run-to-run spread of unchanged code with
// room to spare, and on the shared 2-core host this was sized on that
// spread, 1.5-3.7 % in a quiet hour, reaches 4-13 % in a noisy one even
// from the fastest of a run's ~110 repeats (results/spread.md).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"pkts_per_s", "pkts/s", higher, 0.25},
	{"cells_per_s", "cells/s", higher, 0.25},
	{"cpu_ns_per_pkt", "ns", lower, 0.25},
	{"allocs_per_cell", "count", lower, 0.05},
	{"alloc_bytes_per_cell", "bytes", lower, 0.05},
}

// kernelMetrics are measured once per run, whatever the workload.
var kernelMetrics = []metricDef{
	{"host.spin_ns", "ns", lower, 0},

	{"sim.sched_ns_per_event.1k", "ns", lower, 0},
	{"sim.sched_ns_per_event.100k", "ns", lower, 0},
	{"sim.sched_ns_per_event.1m", "ns", lower, 0},
	{"sim.sched_cancel_ns", "ns", lower, 0},
	{"sim.timer_reset_ns", "ns", lower, 0},
	{"sim.wheel_reset_ns", "ns", lower, 0},
	{"sim.wheel_fire_ns", "ns", lower, 0},
	{"sim.reset_ns", "ns", lower, 0},

	{"netsim.link_hop_ns.untapped", "ns", lower, 0},
	{"netsim.link_hop_ns.tapped", "ns", lower, 0},
	{"netsim.link_hop_ns.impaired", "ns", lower, 0},
	{"netsim.droptail_ns", "ns", lower, 0},
	{"netsim.red_ns", "ns", lower, 0},
	{"netsim.route_hop_ns", "ns", lower, 0},
	{"netsim.flowmon_observe_ns.1k", "ns", lower, 0},
	{"netsim.flowmon_observe_ns.100k", "ns", lower, 0},
	{"netsim.pool_ns", "ns", lower, 0},
	{"netsim.build_routes_ns", "ns", lower, 0},

	{"core.pftk_ns", "ns", lower, 0},
	{"core.losshistory_ns", "ns", lower, 0},
	{"core.receiver_ondata_ns", "ns", lower, 0},
	{"core.receiver_loss_ns", "ns", lower, 0},
	{"core.sender_onfeedback_ns", "ns", lower, 0},

	{"tfrcsim.flow_ns_per_pkt", "ns", lower, 0},
	{"tfrcsim.new_ns", "ns", lower, 0},
	{"tfrcsim.bytes_per_flow", "bytes", lower, 0},

	{"tcp.flow_ns_per_pkt.reno", "ns", lower, 0},
	{"tcp.flow_ns_per_pkt.vegas", "ns", lower, 0},
	{"tcp.flow_ns_per_pkt.ledbat", "ns", lower, 0},
	{"tcp.flow_ns_per_pkt.relentless", "ns", lower, 0},
	{"tcp.recovery_ns_per_pkt", "ns", lower, 0},
	{"tcp.new_ns", "ns", lower, 0},
	{"tcp.bytes_per_flow", "bytes", lower, 0},

	{"cc.onack_ns.reno", "ns", lower, 0},
	{"cc.onack_ns.vegas", "ns", lower, 0},
	{"cc.onack_ns.ledbat", "ns", lower, 0},
	{"cc.onack_ns.relentless", "ns", lower, 0},

	{"traffic.onoff_ns_per_pkt", "ns", lower, 0},
	{"traffic.cbr_ns_per_pkt", "ns", lower, 0},
	{"traffic.mice_ns_per_session", "ns", lower, 0},

	{"faults.apply_ns", "ns", lower, 0},
	{"sweep.map_ns_per_cell", "ns", lower, 0},
	{"shard.params_hash_ns", "ns", lower, 0},

	{"wire.append_data_ns", "ns", lower, 0},
	{"wire.parse_data_ns", "ns", lower, 0},
	{"wire.append_feedback_ns", "ns", lower, 0},
	{"wire.parse_feedback_ns", "ns", lower, 0},
}

// tracedMetrics come from the traced pass of one workload. A metric whose
// layer does no work on that workload, or whose cells the benchmark cannot
// hold (the two grids), reads 0 there.
var tracedMetrics = []metricDef{
	{"sim.events", "count", lower, 0},
	{"sim.run_s", "s", lower, 0},
	{"sim.run_ns_per_event", "ns", lower, 0},

	{"netsim.hops", "count", lower, 0},
	{"netsim.drops", "count", lower, 0},
	{"netsim.drop_frac", "ratio", lower, 0},
	{"netsim.queue_peak_pkts", "count", lower, 0},

	{"tfrcsim.data_pkts", "count", lower, 0},
	{"tfrcsim.feedback_pkts", "count", lower, 0},
	{"tcp.data_pkts", "count", lower, 0},
	{"tcp.acks", "count", lower, 0},

	{"exp.build_s", "s", lower, 0},
	{"exp.harvest_s", "s", lower, 0},
	{"exp.release_s", "s", lower, 0},
	{"exp.live_heap_bytes", "bytes", lower, 0},
	{"exp.live_heap_bytes_per_flow", "bytes", lower, 0},
	{"exp.grid_reduce_s", "s", lower, 0},

	{"sweep.parallel_efficiency", "ratio", higher, 0},
	{"experiment.run_s", "s", lower, 0},
	{"experiment.marshal_s", "s", lower, 0},

	{"shard.run_s", "s", lower, 0},
	{"shard.ckpt_overhead_s", "s", lower, 0},
	{"shard.envelope_write_s", "s", lower, 0},
	{"shard.envelope_read_s", "s", lower, 0},
	{"shard.merge_s", "s", lower, 0},
	{"shard.reduce_s", "s", lower, 0},
	{"shard.overhead_frac", "ratio", lower, 0},

	{"host.peak_rss_bytes", "bytes", lower, 0},
	{"trace.overhead_frac", "ratio", lower, 0},
	{"ledger.explained_frac", "ratio", higher, 0},
}

// perLayer is every per-layer metric, kernels first.
func perLayer() []metricDef {
	return append(append([]metricDef(nil), kernelMetrics...), tracedMetrics...)
}
