package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"tfrc/internal/exp"
)

// Child describes one shard subprocess for the Command builder: the
// supervisor resolves every path so each attempt of each shard runs
// with identical arguments and resumes its own checkpoint.
type Child struct {
	Shard      int
	Count      int
	Range      exp.CellRange
	Experiment string
	ParamsFile string // exact resolved params, written once by Exec
	Checkpoint string
	Out        string // envelope path the child must write
}

// The supervisor's retry policy. A shard gets maxAttempts attempts, the
// first run included; one that exhausts them is recorded as permanently
// failed: its durable checkpoint cells are salvaged and the merged
// envelope reports the rest as missing. After failed attempt k (0-based)
// it waits min(backoffCap, backoffBase<<k), scaled by a jitter factor in
// [0.5, 1.5) that is a pure function of (jitterSeed, shard, k).
const (
	maxAttempts = 3
	backoffBase = 250 * time.Millisecond
	backoffCap  = 5 * time.Second
	jitterSeed  = 1
)

// ExecConfig configures the supervised local fan-out. Its retry policy
// is not configurable: see maxAttempts and backoff.
type ExecConfig struct {
	// Desc and Params identify the sweep; Params must be resolved and
	// valid, and Desc must expose a Grid.
	Desc   exp.Descriptor
	Params exp.Params
	// Shards is the number of subprocesses the grid splits across.
	Shards int
	// Dir holds params.json, per-shard checkpoints, and per-shard
	// envelopes. It must exist.
	Dir string
	// ShardTimeout kills and retries a shard attempt that runs longer
	// than this; 0 disables the timeout.
	ShardTimeout time.Duration

	// Command builds one shard attempt's subprocess; the CLI supplies
	// the real self-exec builder, tests supply fakes. The context
	// carries the shard timeout; build the command with
	// exec.CommandContext so a hung child is killed.
	Command func(ctx context.Context, c Child) *exec.Cmd
	// Sleep, when non-nil, replaces time.Sleep for backoff waits so
	// tests run hermetically.
	Sleep func(time.Duration)
	// Log, when non-nil, receives one line per shard event (start,
	// crash, retry, permanent failure).
	Log io.Writer
}

// backoff is the wait after a shard's failed attempt (0-based) before
// the next one. Deterministic jitter: same (shard, attempt) → same
// delay, so supervisor behavior is reproducible in tests and CI.
func backoff(shard, attempt int) time.Duration {
	d := min(backoffCap, backoffBase<<attempt)
	r := rand.New(rand.NewSource(jitterSeed + int64(shard)*1_000_003 + int64(attempt)*7919))
	return time.Duration(float64(d) * (0.5 + r.Float64()))
}

// Exec runs the full grid as Shards supervised subprocesses and merges
// their envelopes. Crashed or hung shards are restarted (resuming their
// checkpoints) up to the attempt budget; a permanently failed shard
// degrades the result to a well-formed partial envelope — Complete
// false, Missing enumerating the lost cells — rather than an error. The
// returned error is reserved for configuration and I/O problems that
// prevent producing any envelope at all.
func Exec(cfg ExecConfig) (*Envelope, error) {
	if cfg.Command == nil {
		return nil, fmt.Errorf("ExecConfig.Command is required")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard count must be at least 1, got %d", cfg.Shards)
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("%s: invalid parameters: %w", cfg.Desc.Name, err)
	}
	total, err := cfg.Desc.Grid.Cells(cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Desc.Name, err)
	}
	paramsJSON, err := json.Marshal(cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("%s: marshaling params: %w", cfg.Desc.Name, err)
	}
	hash, err := ParamsHash(cfg.Desc.Name, paramsJSON)
	if err != nil {
		return nil, err
	}
	paramsFile := filepath.Join(cfg.Dir, "params.json")
	if err := atomicWrite(paramsFile, paramsJSON); err != nil {
		return nil, fmt.Errorf("writing %s: %w", paramsFile, err)
	}

	sleep := cfg.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var logMu sync.Mutex
	logf := func(format string, args ...any) {
		if cfg.Log == nil {
			return
		}
		logMu.Lock()
		fmt.Fprintf(cfg.Log, format+"\n", args...)
		logMu.Unlock()
	}

	children := make([]Child, cfg.Shards)
	failed := make([]bool, cfg.Shards)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Shards; i++ {
		children[i] = Child{
			Shard:      i,
			Count:      cfg.Shards,
			Range:      SplitRange(total, i, cfg.Shards),
			Experiment: cfg.Desc.Name,
			ParamsFile: paramsFile,
			Checkpoint: filepath.Join(cfg.Dir, fmt.Sprintf("shard-%d.ckpt", i)),
			Out:        filepath.Join(cfg.Dir, fmt.Sprintf("shard-%d.json", i)),
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			failed[i] = !superviseShard(cfg, children[i], sleep, logf)
		}(i)
	}
	wg.Wait()

	envs := make([]*Envelope, 0, cfg.Shards)
	for i, c := range children {
		if !failed[i] {
			e, err := ReadEnvelopeFile(c.Out)
			if err == nil {
				envs = append(envs, e)
				continue
			}
			logf("shard %d/%d: envelope unreadable after success: %v", i, cfg.Shards, err)
		}
		// Permanent failure: salvage the durable checkpoint prefix.
		envs = append(envs, salvageEnvelope(cfg.Desc, paramsJSON, hash, c.Range, c.Checkpoint))
	}
	merged, err := Merge(envs, true)
	if err != nil {
		return nil, err
	}
	if !merged.Complete {
		logf("sweep degraded: cells %s permanently missing", rangesString(merged.Missing))
	}
	return merged, nil
}

// superviseShard runs one shard's attempt loop; true means an attempt
// exited cleanly.
func superviseShard(cfg ExecConfig, c Child, sleep func(time.Duration), logf func(string, ...any)) bool {
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			d := backoff(c.Shard, attempt-1)
			logf("shard %d/%d: retrying (attempt %d of %d) after %s", c.Shard, c.Count, attempt+1, maxAttempts, d)
			sleep(d)
		}
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if cfg.ShardTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, cfg.ShardTimeout)
		}
		cmd := cfg.Command(ctx, c)
		err := cmd.Run()
		cancel()
		if err == nil {
			return true
		}
		switch {
		case ctx.Err() != nil:
			logf("shard %d/%d: attempt %d timed out after %s and was killed", c.Shard, c.Count, attempt+1, cfg.ShardTimeout)
		default:
			logf("shard %d/%d: attempt %d failed: %v", c.Shard, c.Count, attempt+1, err)
		}
	}
	logf("shard %d/%d: attempt budget (%d) exhausted; salvaging checkpoint", c.Shard, c.Count, maxAttempts)
	return false
}
