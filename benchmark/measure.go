package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"
)

// now is the benchmark's only wall-clock read: every host-time number is
// a difference of two calls.
func now() time.Time {
	return time.Now() //tfrclint:allow detrand benchmark reads the wall clock
}

// sample is what one timed repeat cost the host. Counters are read
// between repeats only, never inside one.
type sample struct {
	WallNs     int64 `json:"wall_ns"`
	CPUNs      int64 `json:"cpu_ns"`
	Mallocs    int64 `json:"mallocs"`
	AllocBytes int64 `json:"alloc_bytes"`
}

// measure runs fn once between two counter reads. It forces no
// collection: a forced GC before every repeat lets a second, natural one
// empty the sync.Pools that hold the warm cell, and the repeat then
// measures a cold cell no sweep ever sees.
func measure(fn func()) sample {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuNs()
	t0 := now()
	fn()
	wall := now().Sub(t0)
	cpu1 := cpuNs()
	runtime.ReadMemStats(&after)
	return sample{
		WallNs:     wall.Nanoseconds(),
		CPUNs:      cpu1 - cpu0,
		Mallocs:    int64(after.Mallocs - before.Mallocs),
		AllocBytes: int64(after.TotalAlloc - before.TotalAlloc),
	}
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// peakRSS is the process's resident high-water mark (VmHWM), or 0 where
// /proc does not say.
func peakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, _ := strconv.ParseInt(string(f[0]), 10, 64)
			return kb * 1024
		}
	}
	return 0
}

// dist summarises one timing across its samples: median, quartiles, the
// fastest sample, which every rate is computed from (see fast), and the
// highest percentile that still has ten samples beyond it.
type dist struct {
	N      int     `json:"n"`
	Fast   float64 `json:"fast"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Tail is the value at percentile TailPct; TailPct is 0 (and Tail the
	// maximum) when fewer than 20 samples leave no percentile with ten
	// beyond it.
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
}

func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), Fast: s[0], Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
	d.Tail = s[len(s)-1]
	if len(s) >= 20 {
		d.TailPct = 100 * float64(len(s)-10) / float64(len(s))
		d.Tail = s[len(s)-11]
	}
	return d
}

// quantile interpolates linearly in a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// fast picks the repeat every host-time metric is computed from: the
// fastest one, not the median. The repeats of a run do identical
// deterministic work, and on the shared host this was sized on whatever
// differs between them is a neighbour taking cache and memory bandwidth,
// in bursts of a few seconds whose density drifts over minutes. That only
// ever adds time, so the median follows the burst density while the
// minimum stays at the undisturbed cost as long as one repeat of the run
// falls between two bursts. Cutting a 150 s series of each workload, taken
// in a noisy hour, into 20 s runs, the interquartile spread of a run's
// number was, for the minimum, 2nd, 5th, 10th percentile and median:
// dumbbell8 5.4, 6.3, 7.1, 8.2, 12.2 %; zoo-lossy 3.2, 6.7, 6.9, 8.6,
// 10.9 %; sweepgrid 1.0, 2.2, 2.8, 6.8, 11.8 %; shardmerge 3.5, 2.6, 2.3,
// 2.9, 4.9 %. A change that makes every repeat slower moves the minimum
// as it moves the median; one that only lengthens a tail moves neither
// much, and shows in the quartiles and the tail the report also prints.
func fast(xs []float64) float64 {
	return slices.Min(xs)
}
