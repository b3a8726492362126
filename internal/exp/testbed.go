package exp

import (
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/tcp"
	"tfrc/internal/tfrcsim"
)

// houseLimit is one bandwidth-delay product of buffering at bw bits/sec
// and rtt seconds (nominally 100 ms), in 1000-byte packets, floored at
// 10 for slow links.
func houseLimit(bw, rtt float64) int { return int(max(10, bw*rtt/(8*1000))) }

// houseThresholds scales the RED thresholds to a buffer of limit
// packets: min a tenth of it but at least 5, max half of it. Below 11
// packets that floor would meet or pass the max (which netsim rejects),
// so there min is half of max and 0 < min < max <= limit always holds.
func houseThresholds(limit int) (minTh, maxTh float64) {
	minTh, maxTh = max(5, float64(limit)/10), float64(limit)/2
	if minTh >= maxTh {
		minTh = maxTh / 2
	}
	return minTh, maxTh
}

// houseQueue is the buffer and RED configuration of a house bottleneck.
func houseQueue(bw, rtt float64) (limit int, red netsim.REDConfig) {
	limit = houseLimit(bw, rtt)
	red = netsim.DefaultRED(limit)
	red.MinThresh, red.MaxThresh = houseThresholds(limit)
	return limit, red
}

// houseDelay (one way) and houseBin, in seconds, are the bottleneck
// delay and throughput bin chaos and faultphase share.
const houseDelay, houseBin = 0.025, 0.5

// houseDumbbell is a dumbbell of hosts host pairs around a house
// bottleneck of bw bits/sec and the given one-way delay, buffered for
// the nominal 100 ms; its RED queue draws from seed+1.
func houseDumbbell(sched *sim.Scheduler, hosts int, bw, delay float64, queue netsim.QueueKind, seed int64) *netsim.Dumbbell {
	limit, red := houseQueue(bw, 0.1)
	return netsim.NewDumbbell(sched, netsim.DumbbellConfig{
		Hosts: hosts, BottleneckBW: bw, BottleneckDly: delay,
		Queue: queue, QueueLimit: limit, RED: red,
	}, sched.NewRand(seed+1))
}

// houseTCP is the SACK sender of the testbed: 1 ms of send jitter,
// seeded per run, breaks deterministic phase effects.
func houseTCP(seed int64) tcp.Config {
	return tcp.Config{Variant: tcp.Sack, SendJitter: 0.001, JitterSeed: seed}
}

// jittered gives a TFRC configuration the testbed's 5 % pacing jitter,
// seeded per run, unless it already sets its own.
func jittered(tf tfrcsim.Config, seed int64) tfrcsim.Config {
	if tf.PacingJitter == 0 {
		tf.PacingJitter = 0.05
		tf.JitterSeed = seed
	}
	return tf
}

// houseTFRC is the paper's standard TFRC flow with the house jitter.
func houseTFRC(seed int64) tfrcsim.Config { return jittered(tfrcsim.DefaultConfig(), seed) }

// placeMix places nTCP house TCP flows, then nTFRC house TFRC flows, on
// a dumbbell's host pairs l0→r0, l1→r1, …, drawing each start time from
// rng, uniform over the first 5 s, in placement order.
func placeMix(b *ScenarioBuilder, nTCP, nTFRC int, rng *sim.Rand, seed int64) {
	for i := 0; i < nTCP+nTFRC; i++ {
		src, dst := netsim.IndexedName("l", i), netsim.IndexedName("r", i)
		if i < nTCP {
			b.AddTCP(src, dst, houseTCP(seed), rng.Uniform(0, 5))
		} else {
			b.AddTFRC(src, dst, houseTFRC(seed), rng.Uniform(0, 5))
		}
	}
}

// sumSeries is the aggregate of per-flow binned series: bytes per bin
// over all flows.
func sumSeries(series [][]float64, bins int) []float64 {
	out := make([]float64, bins)
	for _, s := range series {
		for i := 0; i < bins && i < len(s); i++ {
			out[i] += s[i]
		}
	}
	return out
}
