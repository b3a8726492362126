package exp

import (
	"fmt"
	"io"

	"tfrc/internal/faults"
	"tfrc/internal/netsim"
	"tfrc/internal/tcp"
	"tfrc/internal/tfrcsim"
)

// FlapParams is the link-flap soak: TFRC and TCP flows share a dumbbell
// whose bottleneck goes hard down for DownFor seconds at the start of
// each Period, Flaps times in a row. Held-mode outages park the queue
// and drain it on heal; drop-mode outages flush it. The metrics are the
// utilization fractions before, during, and after the flapping window —
// the "after" fraction recovering to the "before" level is the
// robustness claim.
type FlapParams struct {
	NTCP, NTFRC int
	LinkMbps    float64
	FlapStart   float64
	Period      float64 // seconds between consecutive down-transitions
	DownFor     float64 // seconds each outage lasts (< Period)
	Flaps       int
	// Drain holds queued packets across each outage instead of flushing
	// them (faults.Fault.Drain semantics).
	Drain    bool
	Duration float64
	BinWidth float64
	Queue    netsim.QueueKind
	Seed     int64
}

// DefaultFlap is the laptop-scale flap run: four 500 ms outages, 5 s
// apart, on an 8 Mb/s bottleneck.
func DefaultFlap() FlapParams {
	return FlapParams{
		NTCP: 2, NTFRC: 2,
		LinkMbps:  8,
		FlapStart: 30,
		Period:    5,
		DownFor:   0.5,
		Flaps:     4,
		Drain:     true,
		Duration:  90,
		BinWidth:  0.5,
		Queue:     netsim.QueueRED,
		Seed:      1,
	}
}

// Validate implements Params.
func (p *FlapParams) Validate() error {
	if p.NTCP < 0 || p.NTFRC < 0 || p.NTCP+p.NTFRC < 1 {
		return fmt.Errorf("need at least one flow, got NTCP=%d NTFRC=%d", p.NTCP, p.NTFRC)
	}
	if p.LinkMbps <= 0 {
		return fmt.Errorf("LinkMbps must be positive, got %v", p.LinkMbps)
	}
	if p.Flaps < 1 {
		return fmt.Errorf("Flaps must be at least 1, got %d", p.Flaps)
	}
	if p.DownFor <= 0 || p.Period <= p.DownFor {
		return fmt.Errorf("need 0 < DownFor < Period, got DownFor=%v Period=%v", p.DownFor, p.Period)
	}
	end := p.FlapStart + float64(p.Flaps-1)*p.Period + p.DownFor
	if !(0 < p.FlapStart && end < p.Duration) {
		return fmt.Errorf("flap window [%v, %v) must sit inside (0, Duration=%v)", p.FlapStart, end, p.Duration)
	}
	if p.BinWidth <= 0 {
		return fmt.Errorf("BinWidth must be positive, got %v", p.BinWidth)
	}
	return nil
}

// SetSeed implements SeedSetter.
func (p *FlapParams) SetSeed(seed int64) { p.Seed = seed }

var runFlap = Define(single("flap", "riding out repeated hard outages of the bottleneck",
	nil, DefaultFlap, flapCell))

// RunFlap runs the flap scenario.
func RunFlap(pr FlapParams) *FlapResult { return runFlap(&pr) }

// FlapPhase is one phase's utilization summary.
type FlapPhase struct {
	Name     string
	TFRCFrac float64 // TFRC aggregate / nominal phase capacity
	TCPFrac  float64
}

// FlapResult carries the phase summaries and the aggregate traces.
type FlapResult struct {
	Params    FlapParams
	BinWidth  float64
	FlapEnd   float64 // when the last outage healed
	Phases    []FlapPhase
	TFRCTotal []float64 // aggregate bytes per bin
	TCPTotal  []float64
	DropRate  float64
}

func flapCell(c *Cell, pr *FlapParams) *FlapResult {
	sched := c.begin()
	rng := sched.NewRand(pr.Seed)
	bw := pr.LinkMbps * 1e6
	queueLimit := int(max(10, bw*0.1/(8*1000)))
	red := netsim.DefaultRED(queueLimit)
	red.MinThresh = max(5, float64(queueLimit)/10)
	red.MaxThresh = float64(queueLimit) / 2
	d := netsim.NewDumbbell(sched, netsim.DumbbellConfig{
		Hosts:         pr.NTCP + pr.NTFRC,
		BottleneckBW:  bw,
		BottleneckDly: 0.025,
		Queue:         pr.Queue,
		QueueLimit:    queueLimit,
		RED:           red,
	}, sched.NewRand(pr.Seed+1))

	flaps := faults.Flap("rl->rr", pr.FlapStart, pr.Period, pr.DownFor, pr.Flaps, pr.Drain, false)
	flaps.Apply(d.Topo)

	b := NewScenarioBuilder(d.Topo)
	b.MonitorLink("rl->rr", pr.BinWidth, 0)

	start := func() float64 { return rng.Uniform(0, 5) }
	for i := 0; i < pr.NTCP; i++ {
		b.AddTCP(fmt.Sprintf("l%d", i), fmt.Sprintf("r%d", i), tcp.Config{
			Variant: tcp.Sack, SendJitter: 0.001, JitterSeed: pr.Seed,
		}, start())
	}
	for i := 0; i < pr.NTFRC; i++ {
		h := pr.NTCP + i
		tf := tfrcsim.DefaultConfig()
		tf.PacingJitter = 0.05
		tf.JitterSeed = pr.Seed
		b.AddTFRC(fmt.Sprintf("l%d", h), fmt.Sprintf("r%d", h), tf, start())
	}
	res := b.Run(pr.Duration)

	out := &FlapResult{
		Params:    *pr,
		BinWidth:  pr.BinWidth,
		FlapEnd:   pr.FlapStart + float64(pr.Flaps-1)*pr.Period + pr.DownFor,
		TFRCTotal: sumSeries(res.TFRCSeries, res.Bins),
		TCPTotal:  sumSeries(res.TCPSeries, res.Bins),
		DropRate:  res.DropRate,
	}
	b.Release()

	capPerBin := bw / 8 * pr.BinWidth
	phase := func(name string, lo, hi float64) FlapPhase {
		a, z := int(lo/pr.BinWidth), int(hi/pr.BinWidth)
		if z > res.Bins {
			z = res.Bins
		}
		if a > z {
			a = z
		}
		p := FlapPhase{Name: name}
		if z > a {
			var tf, tc float64
			for i := a; i < z; i++ {
				tf += out.TFRCTotal[i]
				tc += out.TCPTotal[i]
			}
			cap := capPerBin * float64(z-a)
			p.TFRCFrac, p.TCPFrac = tf/cap, tc/cap
		}
		return p
	}
	margin := 5.0
	out.Phases = []FlapPhase{
		phase("before", margin, pr.FlapStart),
		phase("flapping", pr.FlapStart, out.FlapEnd),
		phase("recovered", out.FlapEnd+margin, pr.Duration),
	}
	return out
}

// Table implements Result: the phase summary and the aggregate traces.
func (r *FlapResult) Table(w io.Writer) {
	mode := "drop"
	if r.Params.Drain {
		mode = "hold"
	}
	fmt.Fprintf(w, "# Link flaps: %d × %.2f s down (%s) every %.1f s from %.0f s, %.0f Mb/s bottleneck, %d TCP + %d TFRC\n",
		r.Params.Flaps, r.Params.DownFor, mode, r.Params.Period, r.Params.FlapStart,
		r.Params.LinkMbps, r.Params.NTCP, r.Params.NTFRC)
	fmt.Fprintln(w, "# phase\ttfrcFrac\ttcpFrac")
	for _, p := range r.Phases {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\n", p.Name, p.TFRCFrac, p.TCPFrac)
	}
	fmt.Fprintf(w, "# drop rate %.4f\n", r.DropRate)
	fmt.Fprintln(w, "# time\ttfrcKBps\ttcpKBps")
	for i := range r.TFRCTotal {
		fmt.Fprintf(w, "%.1f\t%.1f\t%.1f\n",
			float64(i)*r.BinWidth,
			r.TFRCTotal[i]/1000/r.BinWidth,
			r.TCPTotal[i]/1000/r.BinWidth)
	}
}
