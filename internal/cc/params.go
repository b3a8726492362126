package cc

import (
	"fmt"
	"slices"
	"strings"
)

// Name identifies a controller ("reno", "vegas", "ledbat" or
// "relentless"). The empty Name means the default, reno — so a zero
// cc.Config keeps classic TCP behavior.
type Name string

// names lists the controllers, sorted; New has one case and the arena
// one slab for each.
var names = [...]string{"ledbat", "relentless", "reno", "vegas"}

// Names returns every controller name, sorted, in a slice of its own.
func Names() []string {
	out := names
	return out[:]
}

// Known reports whether name is the canonical name of a controller.
func Known(name string) bool { return slices.Contains(names[:], name) }

// String returns the canonical lower-case name ("reno" for the empty
// default).
func (n Name) String() string {
	if n == "" {
		return "reno"
	}
	return strings.ToLower(string(n))
}

// MarshalText encodes the canonical name for JSON parameter files.
func (n Name) MarshalText() ([]byte, error) { return []byte(n.String()), nil }

// UnmarshalText accepts any case and requires a known name, so
// malformed parameter files fail at decode time with the list of known
// controllers instead of deep inside a run.
func (n *Name) UnmarshalText(text []byte) error {
	name := strings.ToLower(string(text))
	if name == "" {
		name = "reno"
	}
	if !Known(name) {
		return fmt.Errorf("unknown congestion controller %q (have %s)",
			text, strings.Join(Names(), ", "))
	}
	*n = Name(name)
	return nil
}

// Config selects and tunes a congestion controller; it is the
// JSON-serializable form embedded in tcp.Config and experiment
// parameters. The zero value selects reno with default tuning, so
// existing TCP configurations are unchanged. Per-kind tuning rides in
// the typed sub-structs; only the one matching Name is consulted.
type Config struct {
	Name       Name             `json:"name,omitempty"`
	Vegas      VegasParams      `json:"vegas,omitzero"`
	LEDBAT     LEDBATParams     `json:"ledbat,omitzero"`
	Relentless RelentlessParams `json:"relentless,omitzero"`
}

// Validate checks that the named controller exists and every tuning
// block is self-consistent (all blocks are checked — a typo in an
// unused block should fail loudly, not silently ride along).
func (c *Config) Validate() error {
	name := c.Name.String()
	if !Known(name) {
		return fmt.Errorf("unknown congestion controller %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	if err := c.Vegas.Validate(); err != nil {
		return fmt.Errorf("vegas: %w", err)
	}
	if err := c.LEDBAT.Validate(); err != nil {
		return fmt.Errorf("ledbat: %w", err)
	}
	if err := c.Relentless.Validate(); err != nil {
		return fmt.Errorf("relentless: %w", err)
	}
	return nil
}

// VegasParams tunes the delay-based controller: the estimated number of
// packets the flow keeps queued at the bottleneck is held between Alpha
// and Beta, and slow start exits once it exceeds Gamma.
type VegasParams struct {
	// Alpha is the lower queue-occupancy bound in packets (default 1):
	// below it the window grows by one per RTT.
	Alpha float64 `json:"alpha,omitempty"`
	// Beta is the upper bound (default 3): above it the window shrinks
	// by one per RTT.
	Beta float64 `json:"beta,omitempty"`
	// Gamma is the slow-start exit threshold in packets (default 1).
	Gamma float64 `json:"gamma,omitempty"`
}

func (p *VegasParams) fill() {
	if p.Alpha == 0 {
		p.Alpha = 1
	}
	if p.Beta == 0 {
		p.Beta = 3
	}
	if p.Gamma == 0 {
		p.Gamma = 1
	}
}

// Validate checks the tuning. Zero values mean defaults, filled in at Init.
func (p *VegasParams) Validate() error {
	if p.Alpha < 0 || p.Beta < 0 || p.Gamma < 0 {
		return fmt.Errorf("alpha/beta/gamma must be non-negative, got %v/%v/%v", p.Alpha, p.Beta, p.Gamma)
	}
	f := *p
	f.fill()
	if f.Alpha > f.Beta {
		return fmt.Errorf("need alpha <= beta, got %v > %v", f.Alpha, f.Beta)
	}
	return nil
}

// LEDBATParams tunes the background transport: the controller steers
// the estimated queueing delay toward Target, growing when under it and
// shrinking linearly when over it.
type LEDBATParams struct {
	// Target is the queueing-delay target in seconds (default 0.025).
	// RFC 6817 allows up to 100 ms; the default sits well below the
	// tens-of-milliseconds queues the paper's scenarios build, so the
	// transport actually yields instead of competing.
	Target float64 `json:"target,omitempty"`
	// Gain scales the window adjustment: at most Gain packets of growth
	// per RTT, and proportionally faster decrease the further the delay
	// overshoots the target (default 1).
	Gain float64 `json:"gain,omitempty"`
}

func (p *LEDBATParams) fill() {
	if p.Target == 0 {
		p.Target = 0.025
	}
	if p.Gain == 0 {
		p.Gain = 1
	}
}

// Validate checks the tuning. Zero values mean defaults, filled in at Init.
func (p *LEDBATParams) Validate() error {
	if p.Target < 0 {
		return fmt.Errorf("target must be non-negative, got %v", p.Target)
	}
	if p.Target > 0.1 {
		return fmt.Errorf("target must be at most 100 ms (RFC 6817), got %v s", p.Target)
	}
	if p.Gain < 0 {
		return fmt.Errorf("gain must be non-negative, got %v", p.Gain)
	}
	return nil
}

// RelentlessParams tunes the Relentless controller, which decreases the
// window by exactly the number of lost segments instead of halving.
type RelentlessParams struct {
	// MinCwnd floors the window under per-loss decrements (default 2).
	MinCwnd float64 `json:"minCwnd,omitempty"`
}

func (p *RelentlessParams) fill() {
	if p.MinCwnd == 0 {
		p.MinCwnd = 2
	}
}

// Validate checks the tuning. Zero means the default, filled in at Init.
func (p *RelentlessParams) Validate() error {
	if p.MinCwnd < 0 {
		return fmt.Errorf("minCwnd must be non-negative, got %v", p.MinCwnd)
	}
	return nil
}
