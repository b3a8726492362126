package cc

import (
	"encoding/json"
	"math"
	"slices"
	"testing"

	"tfrc/internal/sim"
)

// TestRenoMatchesClassicArithmetic pins the Reno controller to the
// arithmetic the TCP sender used before the cc seam existed: the golden
// figures depend on this equivalence being exact, not approximate.
func TestRenoMatchesClassicArithmetic(t *testing.T) {
	const maxWindow = 50.0
	var r Reno
	r.Init(maxWindow)
	st := State{Cwnd: 2, Ssthresh: maxWindow}

	// Reference: the pre-refactor sender formulas.
	cwnd, ssthresh := 2.0, maxWindow
	refGrow := func() {
		if cwnd < ssthresh {
			cwnd++
			if cwnd > ssthresh {
				cwnd = ssthresh
			}
		} else {
			cwnd += 1 / cwnd
		}
		if cwnd > maxWindow {
			cwnd = maxWindow
		}
	}
	refCut := func(flight int64) {
		ssthresh = math.Max(float64(flight)/2, 2)
		cwnd = ssthresh
	}
	refTimeout := func(flight int64) {
		ssthresh = math.Max(float64(flight)/2, 2)
		cwnd = 1
	}

	check := func(step string) {
		t.Helper()
		if st.Cwnd != cwnd || st.Ssthresh != ssthresh {
			t.Fatalf("%s: got cwnd=%v ssthresh=%v, want %v / %v", step, st.Cwnd, st.Ssthresh, cwnd, ssthresh)
		}
	}
	for i := 0; i < 200; i++ {
		r.OnAck(&st, 1)
		refGrow()
		check("grow")
	}
	r.OnLoss(&st, 37)
	refCut(37)
	check("cut")
	r.OnLostSegment(&st) // halving controllers ignore per-segment losses
	check("lost-segment")
	for i := 0; i < 50; i++ {
		r.OnAck(&st, 2)
		refGrow()
		check("ca-grow")
	}
	r.OnTimeout(&st, 3)
	refTimeout(3)
	check("timeout")
	r.OnLoss(&st, 1) // cut with tiny flight floors at 2
	refCut(1)
	check("floor-cut")
}

// fluidPath models one bottleneck for the delay-based controllers: a
// capacity in packets/sec and a propagation RTT. The standing queue is
// whatever the windows put in flight beyond the bandwidth-delay
// product, and every flow sees the queueing delay on top of the base.
type fluidPath struct {
	capacity float64 // packets/sec
	baseRTT  float64 // seconds
}

func (f fluidPath) bdp() float64 { return f.capacity * f.baseRTT }

func (f fluidPath) rtt(totalCwnd float64) float64 {
	queue := totalCwnd - f.bdp()
	if queue < 0 {
		queue = 0
	}
	return f.baseRTT + queue/f.capacity
}

// round feeds one RTT's worth of acknowledgments (one per packet of the
// current window) to a controller over the current path delay.
func round(c Controller, st *State, rtt float64) {
	n := int(st.Cwnd)
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		c.OnRTTSample(st, rtt)
		c.OnAck(st, 1)
	}
}

// TestVegasPersistentQueue documents the standing-queue pitfall: a lone
// Vegas flow in equilibrium never drains the bottleneck queue — it
// parks between alpha and beta of its own packets there, by design.
func TestVegasPersistentQueue(t *testing.T) {
	path := fluidPath{capacity: 1000, baseRTT: 0.1} // BDP = 100 packets
	var v Vegas
	v.Init(VegasParams{}, 1e4)
	st := State{Cwnd: 2, Ssthresh: 1e4}

	queue := func() float64 { return math.Max(st.Cwnd-path.bdp(), 0) }
	// Slow start overshoots the BDP before the gamma exit fires; the
	// linear one-packet-per-RTT decrease then needs a few hundred rounds
	// to walk the overshoot back down to the alpha..beta band.
	for i := 0; i < 400; i++ {
		round(&v, &st, path.rtt(st.Cwnd))
	}
	// Converged: from here on the queue must hold a persistent backlog
	// in the alpha..beta band — it never drains.
	for i := 0; i < 100; i++ {
		round(&v, &st, path.rtt(st.Cwnd))
		if q := queue(); q < 0.5 || q > 4.5 {
			t.Fatalf("round %d: standing queue %v packets, want within ~[1, 3] (alpha..beta) and never drained", i, q)
		}
	}
	if q := queue(); q <= 0 {
		t.Fatalf("equilibrium queue drained to %v; Vegas should keep alpha..beta packets parked", q)
	}
}

// TestVegasLatecomerAdvantage documents the baseRTT-estimation pitfall:
// a Vegas flow joining a loaded path measures the incumbent's standing
// queue inside its propagation estimate, so it stacks its alpha..beta
// target on top of a queue it cannot see and ends up with the larger
// window — fairness inverts in favor of the latecomer.
func TestVegasLatecomerAdvantage(t *testing.T) {
	path := fluidPath{capacity: 1000, baseRTT: 0.1}
	var v1, v2 Vegas
	v1.Init(VegasParams{}, 1e4)
	st1 := State{Cwnd: 2, Ssthresh: 1e4}
	for i := 0; i < 400; i++ {
		round(&v1, &st1, path.rtt(st1.Cwnd))
	}

	v2.Init(VegasParams{}, 1e4)
	st2 := State{Cwnd: 2, Ssthresh: 1e4}
	for i := 0; i < 400; i++ {
		rtt := path.rtt(st1.Cwnd + st2.Cwnd)
		round(&v1, &st1, rtt)
		round(&v2, &st2, rtt)
	}
	if v2.baseRTT <= path.baseRTT {
		t.Fatalf("latecomer baseRTT %v should exceed the true propagation RTT %v (it joined a loaded path)",
			v2.baseRTT, path.baseRTT)
	}
	if st2.Cwnd <= st1.Cwnd {
		t.Fatalf("latecomer cwnd %v should exceed incumbent cwnd %v (latecomer advantage)", st2.Cwnd, st1.Cwnd)
	}
}

// TestLEDBATYieldsOnDelay: under the target the window creeps up by at
// most gain per RTT; past the target it decreases linearly and floors
// at one packet.
func TestLEDBATYieldsOnDelay(t *testing.T) {
	p := LEDBATParams{Target: 0.025, Gain: 1}
	var l LEDBAT
	l.Init(p, 1e4)
	st := State{Cwnd: 2, Ssthresh: 1e4}

	// Empty path: growth, capped at gain per RTT.
	for i := 0; i < 50; i++ {
		before := st.Cwnd
		round(&l, &st, 0.1)
		if st.Cwnd < before {
			t.Fatalf("round %d: window shrank (%v -> %v) with zero queueing delay", i, before, st.Cwnd)
		}
		if grew := st.Cwnd - before; grew > p.Gain+1e-9 {
			t.Fatalf("round %d: grew %v in one RTT, want at most gain=%v", i, grew, p.Gain)
		}
	}
	if st.Cwnd < 30 {
		t.Fatalf("after 50 empty-path RTTs cwnd = %v, want ~+1/RTT growth", st.Cwnd)
	}

	// A competitor fills the queue: delay overshoots the target 3x, the
	// window must decrease monotonically toward the floor.
	grown := st.Cwnd
	for i := 0; i < 200; i++ {
		before := st.Cwnd
		round(&l, &st, 0.1+3*p.Target)
		if st.Cwnd > before {
			t.Fatalf("round %d: window grew (%v -> %v) with delay 3x over target", i, before, st.Cwnd)
		}
	}
	if st.Cwnd > grown/4 {
		t.Fatalf("after 200 overloaded RTTs cwnd = %v (was %v): LEDBAT failed to yield", st.Cwnd, grown)
	}
	if st.Cwnd < 1 {
		t.Fatalf("cwnd %v fell below the floor of 1", st.Cwnd)
	}
}

// TestRelentlessDecreaseByLost: an episode with k lost segments costs
// exactly k packets of window, not a halving.
func TestRelentlessDecreaseByLost(t *testing.T) {
	var r Relentless
	r.Init(RelentlessParams{}, 1e4)
	st := State{Cwnd: 40, Ssthresh: 40}

	r.OnLoss(&st, 40) // episode entry: no cut
	if st.Cwnd != 40 {
		t.Fatalf("OnLoss cut the window to %v; Relentless must not halve", st.Cwnd)
	}
	for i := 0; i < 7; i++ {
		r.OnLostSegment(&st)
	}
	if st.Cwnd != 33 || st.Ssthresh != 33 {
		t.Fatalf("after 7 lost segments cwnd/ssthresh = %v/%v, want 33/33", st.Cwnd, st.Ssthresh)
	}

	// The floor holds under a burst of losses.
	st = State{Cwnd: 4, Ssthresh: 4}
	for i := 0; i < 10; i++ {
		r.OnLostSegment(&st)
	}
	if st.Cwnd != 2 {
		t.Fatalf("cwnd = %v after a loss burst, want MinCwnd floor 2", st.Cwnd)
	}

	// Timeouts collapse like standard TCP.
	st = State{Cwnd: 30, Ssthresh: 30}
	r.OnTimeout(&st, 30)
	if st.Cwnd != 1 || st.Ssthresh != 15 {
		t.Fatalf("timeout gave cwnd/ssthresh = %v/%v, want 1/15", st.Cwnd, st.Ssthresh)
	}
}

// TestNameTextRoundTrip: every registered name survives the text codec,
// case-insensitively, and unknown names fail with the known list.
func TestNameTextRoundTrip(t *testing.T) {
	for _, name := range Names() {
		var n Name
		if err := n.UnmarshalText([]byte(name)); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", name, err)
		}
		out, err := n.MarshalText()
		if err != nil || string(out) != name {
			t.Fatalf("round trip %q -> %q (err %v)", name, out, err)
		}
	}
	var n Name
	if err := n.UnmarshalText([]byte("LEDBAT")); err != nil || n != "ledbat" {
		t.Fatalf("case-insensitive decode: got %q, %v", n, err)
	}
	if err := n.UnmarshalText([]byte("cubic")); err == nil {
		t.Fatal("unknown controller name decoded without error")
	}
	if err := n.UnmarshalText(nil); err != nil || n != "reno" {
		t.Fatalf("empty name should mean reno, got %q, %v", n, err)
	}
}

// TestConfigJSONRoundTrip: configs survive the JSON path the experiment
// registry uses, including the text-encoded name.
func TestConfigJSONRoundTrip(t *testing.T) {
	cfgs := []Config{
		{},
		{Name: "vegas", Vegas: VegasParams{Alpha: 2, Beta: 4, Gamma: 2}},
		{Name: "ledbat", LEDBAT: LEDBATParams{Target: 0.05, Gain: 0.5}},
		{Name: "relentless", Relentless: RelentlessParams{MinCwnd: 4}},
	}
	for _, cfg := range cfgs {
		blob, err := json.Marshal(&cfg)
		if err != nil {
			t.Fatalf("marshal %+v: %v", cfg, err)
		}
		var back Config
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", blob, err)
		}
		// Names compare canonically: "" and "reno" are the same choice.
		if back.Name.String() != cfg.Name.String() ||
			back.Vegas != cfg.Vegas || back.LEDBAT != cfg.LEDBAT || back.Relentless != cfg.Relentless {
			t.Fatalf("round trip: got %+v, want %+v (json %s)", back, cfg, blob)
		}
	}
}

// TestConfigValidate: unknown names and nonsense tuning fail loudly.
func TestConfigValidate(t *testing.T) {
	good := []Config{{}, {Name: "vegas"}, {Name: "LEDBAT"}}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Validate(%+v): %v", cfg, err)
		}
	}
	bad := []Config{
		{Name: "cubic"},
		{Name: "vegas", Vegas: VegasParams{Alpha: 5, Beta: 2}},
		{Name: "ledbat", LEDBAT: LEDBATParams{Target: 0.5}},
		{Name: "relentless", Relentless: RelentlessParams{MinCwnd: -1}},
		{Name: "reno", Vegas: VegasParams{Alpha: -1}}, // unused blocks are still checked
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("Validate(%+v) passed, want error", cfg)
		}
	}
}

// TestRegistry: Names is the fixed, sorted list of the zoo, Known
// accepts exactly those canonical names, and New builds each of them.
func TestRegistry(t *testing.T) {
	want := []string{"ledbat", "relentless", "reno", "vegas"}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	s := sim.NewScheduler()
	for _, name := range want {
		if !Known(name) {
			t.Fatalf("Known(%q) = false", name)
		}
		New(s, Config{Name: Name(name)}, 1e4).Release()
	}
	for _, name := range []string{"", "Reno", "cubic", "tfrc"} {
		if Known(name) {
			t.Fatalf("Known(%q) = true", name)
		}
	}
}

// TestArenaReuse: Release returns the controller value to the
// scheduler's arena and the next New of the same kind reuses it; a warm
// arena makes the construct/release cycle allocation-free for every
// kind.
func TestArenaReuse(t *testing.T) {
	s := sim.NewScheduler()
	// st lives outside the closure so its escape through the interface
	// calls is paid once, not per run.
	st := State{}
	for _, name := range []Name{"reno", "vegas", "ledbat", "relentless"} {
		c1 := New(s, Config{Name: name}, 1e4)
		c1.Release()
		c2 := New(s, Config{Name: name}, 1e4)
		if c1 != c2 {
			t.Fatalf("%s: released controller not reused (got %p, want %p)", name, c2, c1)
		}
		c2.Release()
		allocs := testing.AllocsPerRun(100, func() {
			c := New(s, Config{Name: name}, 1e4)
			st = State{Cwnd: 2, Ssthresh: 1e4}
			c.OnRTTSample(&st, 0.1)
			c.OnAck(&st, 1)
			c.OnLoss(&st, 10)
			c.OnLostSegment(&st)
			c.OnTimeout(&st, 10)
			c.Release()
		})
		if allocs > 0 {
			t.Fatalf("%s: warm construct+hooks+release cycle allocates %v times, want 0", name, allocs)
		}
	}

	// Scheduler.Reset reclaims controllers wholesale.
	c := New(s, Config{}, 1e4)
	_ = c
	s.Reset()
	c3 := New(s, Config{}, 1e4)
	if c3 == nil {
		t.Fatal("New after Reset returned nil")
	}
}
