// Package tfrc implements TCP-Friendly Rate Control — the equation-based
// congestion control protocol of Floyd, Handley, Padhye & Widmer,
// "Equation-Based Congestion Control for Unicast Applications" (SIGCOMM
// 2000), later standardized as RFC 3448/5348.
//
// TFRC targets flows (streaming media, telephony) that want a smoothly
// changing sending rate rather than TCP's sawtooth, while remaining fair
// to TCP: the sender's rate is set from the TCP response function
// evaluated on a measured loss event rate and smoothed round-trip time.
// The protocol's heart is the receiver's Average Loss Interval estimator:
// a weighted average of the last eight loss intervals with careful
// handling of the still-open interval and history discounting after long
// loss-free periods.
//
// The module exposes three public layers:
//
//   - The algorithms (this package): Throughput, the paper's Equation (1)
//     (the TCP response function the sender's rate follows), and the wire
//     endpoints that run the protocol: they see only a clock and a
//     datagram seam, and run either over any net.PacketConn on the wall
//     clock (NewWireSender / NewWireReceiver, examples/udp) or, byte for
//     byte the same code, between two hosts of a scenario.Topology in
//     virtual time (NewSimWirePair — a deterministic Dummynet-style
//     testbed shaped by fault schedules, examples/quickstart). Use these
//     to embed TFRC in your own transport.
//
//   - Package scenario: the packet-level simulator's composition
//     surface. Topologies are declared, not hardcoded — named nodes,
//     LinkSpecs, rate and delay steps (of one direction or both) as
//     fault schedules — with the dumbbell and parking-lot presets, and
//     a Builder placing TCP (Tahoe/Reno/NewReno/SACK), TFRC, and
//     background flows on named host pairs with monitors on named
//     links, harvested into one Result. Scenarios run on the same
//     arena-pooled zero-allocation engine as the paper experiments.
//     TCP's window arithmetic is pluggable:
//     Builder.AddCC selects a congestion controller per flow from the
//     zoo in internal/cc (reno, vegas, ledbat, relentless), with the
//     sender keeping the mechanics (SACK scoreboard, recovery) and the
//     controller the policy; the "ccfair" experiment races them head to
//     head. A parking lot in four lines, and a rate step on it:
//
//     topo := scenario.NewTopology(scenario.NewScheduler(), rng)
//     topo.Link("r0", "r1", bottleneck) // LinkSpec{Bandwidth, Delay, Queue, ...}
//     topo.Link("r1", "r2", bottleneck)
//     topo.Link("src", "r0", access); topo.Link("dst", "r2", access)
//     step := experiment.FaultSchedule{Faults: []experiment.Fault{{
//     At: 30, Link: "r0->r1", Kind: "bandwidth", Bandwidth: 1e6}}}
//     step.Apply(topo)
//
//   - Package experiment: the registry of the paper's evaluation.
//     Every figure (2-21) and beyond-paper experiment (parkinglot,
//     faultphase, manyflows, ccfair, chaos) is one
//     experiment.Define spec — JSON-serializable, self-validating
//     parameters (the paper's full scale is the "paper" preset), a
//     cell count, a pure per-cell function and a reducer to a Result
//     that renders both the gnuplot-ready table and stable-keyed JSON.
//     experiment.Get("fig6") → tweak params → experiment.Run;
//     cmd/tfrcsim is a thin shell over the registry ("tfrcsim run fig6
//     -format json"). Every experiment executes its independent cells
//     on a parallel sweep runner whose output is bit-identical to a
//     sequential run (-parallel N) and shards across processes
//     ("tfrcsim shard"), with -seeds K for per-cell mean ± 90% CI.
//
// The module path is "tfrc"; packages import as tfrc/internal/...
//
// # Scale: a million concurrent flows
//
// The engine holds three structural choices that keep per-flow cost flat
// from 8 flows to 10^6 (the "manyflows" experiment climbs that ladder and
// reports utilization, Jain fairness, and per-flow throughput/loss
// distributions per decade; "tfrcsim run manyflows", preset "million"):
//
//   - Event queue: the scheduler's pending-event queue is a
//     self-tuning calendar queue whose day buckets are linked lists
//     threaded through the scheduler's own slot table (one 64-byte
//     event per pending callback, nothing else grows with the
//     population). It re-derives its day width from the density of the
//     soonest-due events whenever list walks get long, so insert/pop
//     stay O(1) expected as a population slow-starts, converges or
//     drains. It replaced a flat 4-ary heap that it beat at every
//     population measured (internal/sim/calendar.go records the
//     verdict); events fire in (time, insertion-sequence) order whatever
//     the tuning, which the sim tests check against a sorted slice.
//
//   - Batched timers: TFRC feedback and no-feedback timers — precision
//     requirement "about one RTT" — can opt onto a shared timer wheel
//     (Config.CoarseTimerTick) that rounds deadlines up to a coarse tick
//     and fires each tick's batch from one scheduler event, so a million
//     armed timers do not mean a million resident queue entries. Figure
//     experiments keep exact timers; deadlines are never early.
//
//   - Flow state: agents, controllers, nodes, links and queues live as
//     values in one slab type (sim.Slab: stable addresses, chunks that
//     start at 8 slots and double, a free list, the same slots in the
//     same order after every Reset). Storage is sized by demand and kept
//     by its slot: a SACK scoreboard is allocated by the first hole a
//     flow sees (in-order data never touches one), a queue ring starts
//     at 8 packets and doubles up to its limit, the small per-node tables
//     and rings are cut from a few chunks per network (sim.Carver), and
//     whatever a slot grew is there for its next tenant, so a cold cell
//     costs what it uses and a warm one allocates nothing new. Resident
//     agent state follows live flows: a finished short transfer's sender
//     is back in the arena before the next one starts.
//     Per-flow measurement series live in struct-of-arrays monitor
//     columns, and a node delivers a packet by one index into its
//     port-indexed table; the scenario builder numbers every node's
//     ports densely from 1, mice generators included.
//
// # Invariants and lint
//
// The simulator's load-bearing properties — determinism, zero-allocation
// hot paths, and arena discipline — are mechanically enforced. Three
// go/types analyzers in internal/lint read the source; TestLintModule
// type-checks every package go list names and runs them, so go test
// ./... is the gate: detrand (no global math/rand, wall-clock reads or
// timers, or order-sensitive map iteration in simulation packages — the
// wire transport included, bar its OS driver's marked sites), releasecheck
// (Results never alias arena memory), and importboundary (examples and
// cmd stay off the internals; public packages leak no internal types).
// What the packet path allocates, compiler escapes included, is measured
// by the one allocation gate, the warm-cell matrix in internal/exp. What
// a released cell keeps and what a parameter set holds are checked by
// behaviour: the warm-cell matrix watches caller-owned sentinels through
// weak pointers across each row's Release, and the experiment package's
// round-trip test walks every registered Params type for fields JSON
// cannot carry back. Deliberate exceptions are annotated in
// place, with a reason: //tfrclint:allow <analyzer> <why>. The same
// test fails on exported code that only tests call unless
// scripts/census_allowlist.txt names it with a reason (a func of a
// public package needs a program under examples/ that calls it), and
// on a second statement of the house testbed, of the chunked
// allocator, or of the run options' process default.
//
// Quick start (the wire endpoints over a simulated 2 Mb/s path; put
// them on sockets with NewWireSender / NewWireReceiver and `go x.Run()`):
//
//	sched := scenario.NewScheduler()
//	topo := scenario.NewTopology(sched, nil)
//	topo.Link("src", "dst", scenario.LinkSpec{Bandwidth: 2e6, Delay: 0.010, QueueLimit: 60})
//	topo.Build()
//	send, recv := tfrc.NewSimWirePair(topo, "src", "dst", 1, nil, tfrc.WireConfig{})
//	sched.At(0, send.Run)
//	sched.RunUntil(10) // ten virtual seconds, no wall-clock time
//	// send.Rate() follows the TCP-fair rate; send.Stats(), recv.Stats()
//	// snapshot rate, p, RTT and the packet and reject counters. Reading
//	// them never changes the flow: only arrivals and the receiver's own
//	// reports write its loss history.
package tfrc
