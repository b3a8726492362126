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

// Config selects a congestion controller; it is the JSON-serializable
// form embedded in tcp.Config. The zero value selects reno, so existing
// TCP configurations are unchanged. Every controller runs at the one
// tuning its constants fix.
type Config struct {
	Name Name `json:"name,omitempty"`
}
