//go:build !unix

package main

// cpuNs has no getrusage to read here; cpu_ns_per_pkt then reads 0 and
// the benchmark's own non-zero check fails the run.
func cpuNs() int64 { return 0 }
