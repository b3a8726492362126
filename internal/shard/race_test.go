//go:build race

package shard

// Under the race detector sync.Pool drops a quarter of what is put back,
// so how often a run builds a fresh arena — and what it allocates — is
// random.
func init() { raceEnabled = true }
