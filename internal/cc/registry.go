package cc

import (
	"fmt"
	"sort"

	"tfrc/internal/sim"
)

// Registration binds a controller name to its arena-backed constructor, mirroring the experiment registry: the
// built-in zoo self-registers in init, and user code can register rival
// algorithms that then work everywhere a built-in does (tcp.Config.CC,
// scenario.Builder.AddCC, the ccfair experiment's protocol names).
type Registration struct {
	// Name is the registry key, matched case-insensitively by cc.Name.
	Name string
	// Description is one line for listings.
	Description string
	// New builds a controller for the validated Config on the given
	// scheduler's arena. maxWindow caps the congestion window.
	New func(s *sim.Scheduler, cfg Config, maxWindow float64) Controller
}

var registry = map[string]Registration{}

// Register adds a controller to the registry. Registering a name twice
// panics: the registry is program-wide configuration and a collision is
// a programming error.
func Register(r Registration) {
	if r.Name == "" || r.New == nil {
		panic("cc: Register needs Name and New")
	}
	if _, dup := registry[r.Name]; dup {
		panic(fmt.Sprintf("cc: controller %q already registered", r.Name))
	}
	registry[r.Name] = r
}

// Lookup finds a controller registration by canonical name.
func Lookup(name string) (Registration, bool) {
	r, ok := registry[name]
	return r, ok
}

// Names returns every registered controller name, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// New returns a controller for cfg, drawn from the scheduler's
// controller arena and re-initialized for a fresh connection. The
// config must name a registered controller (a zero Config selects
// reno); an unknown name panics — validate configs with Config.Validate
// at the parameter boundary. The built-in kinds draw from slabs, so a
// warm arena makes New allocation-free.
func New(s *sim.Scheduler, cfg Config, maxWindow float64) Controller {
	reg, ok := Lookup(cfg.Name.String())
	if !ok {
		panic(fmt.Sprintf("cc: unknown congestion controller %q", cfg.Name))
	}
	return reg.New(s, cfg, maxWindow)
}

func init() {
	Register(Registration{
		Name:        "reno",
		Description: "classic loss-based AIMD: slow start, 1/cwnd growth, halve on loss",
		New: func(s *sim.Scheduler, cfg Config, maxWindow float64) Controller {
			a := arenaOf(s)
			r := a.reno.Get()
			r.Init(maxWindow)
			r.home = a
			return r
		},
	})
	Register(Registration{
		Name:        "vegas",
		Description: "delay-based: holds alpha..beta packets queued, backs off on RTT growth",
		New: func(s *sim.Scheduler, cfg Config, maxWindow float64) Controller {
			a := arenaOf(s)
			v := a.vegas.Get()
			v.Init(cfg.Vegas, maxWindow)
			v.home = a
			return v
		},
	})
	Register(Registration{
		Name:        "ledbat",
		Description: "background transport: yields once queueing delay exceeds its target",
		New: func(s *sim.Scheduler, cfg Config, maxWindow float64) Controller {
			a := arenaOf(s)
			l := a.ledbat.Get()
			l.Init(cfg.LEDBAT, maxWindow)
			l.home = a
			return l
		},
	})
	Register(Registration{
		Name:        "relentless",
		Description: "decreases by exactly the lost segments instead of halving",
		New: func(s *sim.Scheduler, cfg Config, maxWindow float64) Controller {
			a := arenaOf(s)
			r := a.relentless.Get()
			r.Init(cfg.Relentless, maxWindow)
			r.home = a
			return r
		},
	})
}
