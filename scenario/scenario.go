// Package scenario is the public composition surface of the packet-level
// reproduction harness: declarative topologies (named nodes, links, the
// dumbbell and parking-lot presets; a link that changes rate or delay
// mid-run, or runs one direction at another rate, is an
// experiment.FaultSchedule applied to the topology), a scenario Builder
// placing TCP, TFRC, and
// background flows on named host pairs with monitors on named links, and
// a single harvest step producing a Result.
//
// Everything here is a stable alias over the internal implementation, so
// scenarios composed on this package run on exactly the zero-allocation
// arena-pooled engine the figure experiments use. There is one reuse
// pattern: call (*Builder).Release after harvesting, which rewinds the
// scheduler the builder was built on, and build the next scenario on
// that same scheduler; it reuses the entire working set. An
// experiment.Spec cell is handed a scheduler already rewound.
//
// A minimal custom scenario:
//
//	sched := scenario.NewScheduler()
//	topo := scenario.NewTopology(sched, scenario.NewRand(1))
//	topo.Link("src", "dst", scenario.LinkSpec{
//		Bandwidth: 2e6, Delay: 0.025,
//		Queue: scenario.QueueDropTail, QueueLimit: 60,
//	})
//	b := scenario.NewBuilder(topo)
//	b.MonitorLink("src->dst", 0.5, 5)
//	b.AddTFRC("src", "dst", scenario.DefaultTFRCConfig(), 0)
//	res := b.Run(60)
//	b.Release()
//
// The paper's dumbbell mix (n TCP + n TFRC + background on one
// bottleneck) is packaged as Spec / Run, the same preset the figure
// experiments are built on.
package scenario

import (
	"fmt"

	"tfrc/internal/cc"
	"tfrc/internal/exp"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/tcp"
	"tfrc/internal/tfrcsim"
	"tfrc/internal/traffic"
)

// Simulation engine.
type (
	// Scheduler is the discrete-event clock every scenario runs on.
	Scheduler = sim.Scheduler
	// Rand is a deterministic random source bound to a seed.
	Rand = sim.Rand
)

// NewScheduler returns a fresh event scheduler at time zero.
func NewScheduler() *Scheduler { return sim.NewScheduler() }

// NewRand returns a deterministic random source. Sources drawn from a
// scheduler (Scheduler.NewRand) recycle with its arena; use those inside
// pooled scenarios.
func NewRand(seed int64) *Rand { return sim.NewRand(seed) }

// Topology layer.
type (
	// Topology declaratively builds a network: named nodes joined by
	// links, each direction with its own queue.
	Topology = netsim.Topology
	// LinkSpec declares one direction of a link.
	LinkSpec = netsim.LinkSpec
	// QueueKind selects a queue discipline (DropTail or RED).
	QueueKind = netsim.QueueKind
	// REDConfig tunes a RED queue.
	REDConfig = netsim.REDConfig
	// Node is one network node; Link one direction of a link.
	Node = netsim.Node
	Link = netsim.Link
	// QueueSample is one queue-occupancy observation.
	QueueSample = netsim.QueueSample
	// FlowMonitor bins per-flow bytes at a link; QueueMonitor samples
	// queue occupancy. Builder.MonitorUtilization reads delivered
	// capacity off the primary FlowMonitor.
	FlowMonitor  = netsim.FlowMonitor
	QueueMonitor = netsim.QueueMonitor

	// Dumbbell and ParkingLot are the built preset topologies, with
	// their configs.
	Dumbbell         = netsim.Dumbbell
	DumbbellConfig   = netsim.DumbbellConfig
	ParkingLot       = netsim.ParkingLot
	ParkingLotConfig = netsim.ParkingLotConfig
)

// Queue disciplines.
const (
	QueueDropTail = netsim.QueueDropTail
	QueueRED      = netsim.QueueRED
)

// NewTopology returns an empty topology on a fresh network bound to
// sched. rng drives RED early-drop decisions; it may be nil if no RED
// queue is declared.
func NewTopology(sched *Scheduler, rng *Rand) *Topology { return netsim.NewTopology(sched, rng) }

// NewDumbbell builds the paper's single-bottleneck topology: routers
// "rl"/"rr", hosts "l{i}"/"r{i}", bottleneck link "rl->rr".
func NewDumbbell(sched *Scheduler, cfg DumbbellConfig, rng *Rand) *Dumbbell {
	return netsim.NewDumbbell(sched, cfg, rng)
}

// NewParkingLot builds the k-bottleneck chain: routers "r0".."rk",
// through hosts "ts{i}"/"td{i}", per-segment cross hosts
// "cs{s}.{i}"/"cd{s}.{i}".
func NewParkingLot(sched *Scheduler, cfg ParkingLotConfig, rng *Rand) *ParkingLot {
	return netsim.NewParkingLot(sched, cfg, rng)
}

// DefaultRED returns the paper's RED configuration for a queue of the
// given limit.
func DefaultRED(limit int) REDConfig { return netsim.DefaultRED(limit) }

// IndexedName returns the interned "prefix{i}" node name the presets
// use ("l0", "r3", ...).
func IndexedName(prefix string, i int) string { return netsim.IndexedName(prefix, i) }

// Flow configuration.
type (
	// TCPConfig parameterizes a TCP sender; TCPVariant selects its
	// loss-recovery flavor.
	TCPConfig  = tcp.Config
	TCPVariant = tcp.Variant
	// TFRCConfig bundles the protocol parameters of one TFRC connection.
	TFRCConfig = tfrcsim.Config
	// OnOffConfig parameterizes a Pareto ON/OFF background source;
	// MiceConfig a short-TCP session generator.
	OnOffConfig = traffic.OnOffConfig
	MiceConfig  = traffic.MiceConfig
)

// TCP variants, in increasing order of loss-recovery sophistication.
const (
	TCPTahoe   = tcp.Tahoe
	TCPReno    = tcp.Reno
	TCPNewReno = tcp.NewReno
	TCPSack    = tcp.Sack
)

// Congestion-control zoo: four sender-side window policies riding the
// TCP transport's loss-recovery mechanics (TCPConfig.CC selects one;
// Builder.AddCC places a flow with one).
type (
	// CCConfig names a congestion controller, each at its one fixed
	// tuning; the zero value is classic Reno AIMD.
	CCConfig = cc.Config
	// CCName is a controller name with text/JSON codecs ("reno",
	// "vegas", "ledbat", "relentless").
	CCName = cc.Name
)

// DefaultTFRCConfig returns the paper's standard TFRC configuration.
func DefaultTFRCConfig() TFRCConfig { return tfrcsim.DefaultConfig() }

// Scenario composition.
type (
	// Builder composes a simulation on an arbitrary topology: flows on
	// named host pairs, monitors on named links, one harvest step.
	Builder = exp.ScenarioBuilder
	// Result carries everything a harvest extracts: per-flow series,
	// utilization, drop rate, queue statistics, fair share.
	Result = exp.ScenarioResult
	// Spec is the paper's dumbbell scenario preset: n TCP + n TFRC
	// flows plus optional ON/OFF and mice background on one bottleneck.
	Spec = exp.Scenario
)

// NewBuilder returns a builder over the topology. The builder and all
// simulation state come from the scheduler's arena, so repeated
// scenarios on one scheduler reuse a warm working set: call Release
// after harvesting, then build the next scenario on the same scheduler.
func NewBuilder(t *Topology) *Builder { return exp.NewScenarioBuilder(t) }

// Run validates and executes the dumbbell preset, harvesting a Result.
// Repeated calls reuse a pooled simulation arena, so sweeping specs in
// a loop stays allocation-light.
func Run(sp Spec) (*Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return exp.RunScenario(sp), nil
}
