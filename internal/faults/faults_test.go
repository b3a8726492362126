package faults

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/wire"
)

func TestScheduleJSONRoundTrip(t *testing.T) {
	sc := Schedule{
		Seed:    42,
		Reroute: true,
		Faults: []Fault{
			{At: 1, Link: "a->b", Kind: LinkDown, Drain: true},
			{At: 2, Link: "a->b", Kind: LinkUp},
			{At: 3, Link: "a->b", Kind: DelaySpike, Delay: 0.2},
			{At: 4, Link: "a->b", Kind: BandwidthCollapse, Bandwidth: 1e5},
			{At: 5, Link: "b->a", Kind: Blackhole},
			{At: 6, Link: "b->a", Kind: BlackholeOff},
			{At: 7, Link: "a->b", Kind: Impair, Reorder: 0.1, ReorderDelay: 0.02, Duplicate: 0.05, Corrupt: 0.01},
		},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	j, err := json.Marshal(&sc)
	if err != nil {
		t.Fatal(err)
	}
	var back Schedule
	if err := json.Unmarshal(j, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Fatalf("round trip changed the schedule:\n%+v\n%+v", sc, back)
	}
	// Decoded over another schedule, as a -params overlay is decoded over
	// an experiment's defaults, the JSON replaces it whole: encoding/json
	// alone leaves a reused fault's omitted fields as they were.
	over := Schedule{Seed: 7, Faults: make([]Fault, len(sc.Faults))}
	for i := range over.Faults {
		over.Faults[i] = Fault{Drain: true, Delay: 1, Bandwidth: 1, Corrupt: 1}
	}
	if err := json.Unmarshal(j, &over); err != nil || !reflect.DeepEqual(sc, over) {
		t.Fatalf("decoding over a schedule kept some of it (%v):\n%+v\n%+v", err, sc, over)
	}
	if err := json.Unmarshal([]byte(`{"faults": [{"at": 1, "link": "a->b", "kind": "bandwidth", "bandwith": 1e5}]}`), &back); err == nil {
		t.Fatal("a misspelled field decoded")
	}
}

func TestValidateRejectsBadFaults(t *testing.T) {
	bad := []Fault{
		{At: -1, Link: "a->b", Kind: LinkDown},
		{At: 0, Link: "", Kind: LinkDown},
		{At: 0, Link: "a->b", Kind: Kind("meteor")},
		{At: 0, Link: "a->b", Kind: DelaySpike, Delay: -1},
		{At: 0, Link: "a->b", Kind: BandwidthCollapse, Bandwidth: 0},
		{At: 0, Link: "a->b", Kind: Impair, Reorder: 1.5},
		{At: 0, Link: "a->b", Kind: Impair, ReorderDelay: -0.1},
	}
	for i, f := range bad {
		sc := Schedule{Faults: []Fault{f}}
		if err := sc.Validate(); err == nil {
			t.Errorf("bad fault %d validated: %+v", i, f)
		}
	}
}

// TestApplyRejectsInvalidFaults pins where a bad schedule fails: at
// Apply, naming the fault, not at the fault's time deep inside a run.
// Non-finite values are bad too — NaN compares false against every
// bound, so each needs its own check.
func TestApplyRejectsInvalidFaults(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Fault{
		{At: 1, Link: "a->b", Kind: DelaySpike, Delay: -1},
		{At: 1, Link: "a->b", Kind: DelaySpike, Delay: nan},
		{At: 1, Link: "a->b", Kind: DelaySpike, Delay: inf},
		{At: 1, Link: "a->b", Kind: BandwidthCollapse, Bandwidth: nan},
		{At: 1, Link: "a->b", Kind: BandwidthCollapse, Bandwidth: inf},
		{At: 1, Link: "a->b", Kind: Impair, Reorder: nan},
		{At: 1, Link: "a->b", Kind: Impair, Duplicate: nan},
		{At: 1, Link: "a->b", Kind: Impair, Corrupt: nan},
		{At: 1, Link: "a->b", Kind: Impair, ReorderDelay: nan},
		{At: 1, Link: "a->b", Kind: Impair, ReorderDelay: inf},
		{At: inf, Link: "a->b", Kind: LinkDown},
		{At: nan, Link: "a->b", Kind: LinkDown},
	}
	for i, f := range bad {
		sc := Schedule{Faults: []Fault{{At: 0.5, Link: "a->b", Kind: LinkUp}, f}}
		if err := sc.Validate(); err == nil {
			t.Errorf("bad fault %d validated: %+v", i, f)
		}
		_, topo, _ := pairTopo(t)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "faults[1]") {
					t.Errorf("bad fault %d: Apply panicked with %q, want a message naming faults[1]", i, msg)
				}
			}()
			sc.Apply(topo)
		}()
	}

	ok := Schedule{Seed: 1, Faults: []Fault{
		{At: 0, Link: "a->b", Kind: Impair, Reorder: 0.1, ReorderDelay: 0.01, Duplicate: 0.1, Corrupt: 0.1},
		{At: 1, Link: "a->b", Kind: DelaySpike, Delay: 0.2},
		{At: 2, Link: "a->b", Kind: BandwidthCollapse, Bandwidth: 1e5},
		{At: 3, Link: "a->b", Kind: LinkDown},
	}}
	if n := testing.AllocsPerRun(100, func() { _ = ok.Validate() }); n != 0 {
		t.Fatalf("validating a valid schedule allocates %v times, want 0", n)
	}
}

func TestConstructorsShape(t *testing.T) {
	b := Blackout("rr->rl", 10, 20)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.Faults) != 2 || b.Faults[0].Kind != Blackhole || b.Faults[1].Kind != BlackholeOff {
		t.Fatalf("Blackout = %+v", b.Faults)
	}
	if b.Faults[0].At != 10 || b.Faults[1].At != 20 {
		t.Fatalf("Blackout times = %+v", b.Faults)
	}

	fl := Flap("rl->rr", 30, 5, 0.5, 3, true, true)
	if err := fl.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(fl.Faults) != 6 {
		t.Fatalf("Flap emitted %d faults, want 6", len(fl.Faults))
	}
	if !fl.Reroute {
		t.Fatal("Flap dropped the reroute flag")
	}
	for i := 0; i < 3; i++ {
		down, up := fl.Faults[2*i], fl.Faults[2*i+1]
		wantDown := 30 + float64(i)*5
		if down.Kind != LinkDown || !down.Drain || down.At != wantDown {
			t.Fatalf("flap %d down = %+v", i, down)
		}
		if up.Kind != LinkUp || up.At != wantDown+0.5 {
			t.Fatalf("flap %d up = %+v", i, up)
		}
	}
}

// sinkAgent counts deliveries.
type sinkAgent struct {
	nw    *netsim.Network
	times []float64
}

func (s *sinkAgent) Recv(p *netsim.Packet) {
	s.times = append(s.times, s.nw.Now())
	s.nw.Free(p)
}

// pairTopo is a two-node topology with named links a->b and b->a.
func pairTopo(t *testing.T) (*sim.Scheduler, *netsim.Topology, *netsim.Network) {
	t.Helper()
	sched := sim.NewScheduler()
	topo := netsim.NewTopology(sched, sched.NewRand(1))
	topo.Link("a", "b", netsim.LinkSpec{Bandwidth: 1e6, Delay: 0.01, QueueLimit: 100})
	return sched, topo, topo.Build()
}

func TestApplyBlackoutWindow(t *testing.T) {
	sched, topo, nw := pairTopo(t)
	sink := &sinkAgent{nw: nw}
	topo.Node("b").Attach(1, sink)

	sc := Blackout("a->b", 0.5, 1.0)
	sc.Apply(topo)

	// One packet every 100 ms for 1.5 s.
	a, b := topo.Node("a"), topo.Node("b")
	for i := 0; i < 15; i++ {
		at := 0.05 + float64(i)*0.1
		sched.At(at, func() {
			p := nw.NewPacket()
			p.Size = 1000
			p.Src, p.Dst, p.DstPort = a.ID, b.ID, 1
			a.Send(p)
		})
	}
	for sched.Step() {
	}
	// 15 sends, 5 inside [0.5, 1.0): exactly 10 arrive.
	if len(sink.times) != 10 {
		t.Fatalf("delivered %d packets, want 10", len(sink.times))
	}
	for _, at := range sink.times {
		if at >= 0.5 && at < 1.0 {
			t.Fatalf("delivery at %v inside the blackout window", at)
		}
	}
}

func TestApplyImpairIsDeterministic(t *testing.T) {
	run := func() []float64 {
		sched, topo, nw := pairTopo(t)
		sink := &sinkAgent{nw: nw}
		topo.Node("b").Attach(1, sink)
		sc := Schedule{
			Seed: 99,
			Faults: []Fault{
				{At: 0, Link: "a->b", Kind: Impair, Reorder: 0.4, ReorderDelay: 0.03, Duplicate: 0.2, Corrupt: 0.1},
			},
		}
		sc.Apply(topo)
		a, b := topo.Node("a"), topo.Node("b")
		for i := 0; i < 40; i++ {
			at := 0.01 + float64(i)*0.02
			sched.At(at, func() {
				p := nw.NewPacket()
				p.Size = 500
				p.Src, p.Dst, p.DstPort = a.ID, b.ID, 1
				a.Send(p)
			})
		}
		for sched.Step() {
		}
		return sink.times
	}
	if first, second := run(), run(); !reflect.DeepEqual(first, second) {
		t.Fatalf("same seed produced different delivery times:\n%v\n%v", first, second)
	}
}

func TestCheckGracefulVerdicts(t *testing.T) {
	// Synthetic run: 1000 B packets, steady 10 kB/s before the outage at
	// [10, 20), decayed to 100 B/s during it, back to 10 kB/s right
	// after. Bins are 1 s wide.
	spec := GracefulSpec{
		OutageStart:   10,
		OutageEnd:     20,
		PreFrom:       5,
		PacketSize:    1000,
		DegradeBelow:  4000,
		FloorRate:     1000.0 / 64,
		RecoverWithin: 3,
	}
	bins := make([]float64, 30)
	for i := range bins {
		switch {
		case i < 10:
			bins[i] = 10000
		case i < 20:
			bins[i] = 100
		default:
			bins[i] = 10000
		}
	}
	rates := []RatePoint{{T: 0, Rate: 10000}}
	for i := 0; i < 7; i++ { // halve every second from the outage start
		rates = append(rates, RatePoint{T: 10.5 + float64(i), Rate: 10000 / math.Pow(2, float64(i+1))})
	}
	rates = append(rates, RatePoint{T: 20.2, Rate: 10000})
	var sends []float64
	rate := 10000.0
	ri := 1
	for tm := 0.0; tm < 20; {
		sends = append(sends, tm)
		for ri < len(rates) && rates[ri].T <= tm {
			rate = rates[ri].Rate
			ri++
		}
		tm += 1000 / rate
	}
	rep := CheckGraceful(spec, sends, rates, bins, 1)
	if !rep.OK {
		t.Fatalf("healthy synthetic run failed: %s", rep)
	}
	if rep.PreRate != 10000 {
		t.Fatalf("PreRate = %v, want 10000", rep.PreRate)
	}
	if rep.DegradedRate != 10000.0/128 {
		t.Fatalf("DegradedRate = %v, want %v", rep.DegradedRate, 10000.0/128)
	}
	if rep.RecoveredAt != 21 {
		t.Fatalf("RecoveredAt = %v, want 21", rep.RecoveredAt)
	}

	// A sender that went silent mid-outage is not live: no sends after
	// t=12 even though the rate trace says ~78 B/s (12.8 s spacing
	// allowed = 38 s > remaining outage, so use a harsher trace).
	gap := CheckGraceful(spec, sends[:len(sends)-1], []RatePoint{{T: 0, Rate: 10000}}, bins, 1)
	if gap.Live {
		t.Fatal("a 10 s gap at 10 kB/s should not count as live")
	}

	// Never degraded: rate held at 10 kB/s through the outage.
	hot := CheckGraceful(spec, sends, []RatePoint{{T: 0, Rate: 10000}}, bins, 1)
	if hot.Degraded {
		t.Fatal("rate never halved but Degraded = true")
	}

	// Floor broken.
	cold := append([]RatePoint{}, rates...)
	cold = append(cold[:len(cold)-1], RatePoint{T: 19, Rate: 1}, cold[len(cold)-1])
	if rep := CheckGraceful(spec, sends, cold, bins, 1); rep.FloorKept {
		t.Fatal("1 B/s is below the floor but FloorKept = true")
	}

	// Late recovery: goodput stays degraded past the deadline.
	late := append([]float64{}, bins...)
	for i := 20; i < 26; i++ {
		late[i] = 100
	}
	if rep := CheckGraceful(spec, sends, rates, late, 1); rep.Recovered {
		t.Fatal("recovery at +6 s against a 3 s budget counted as recovered")
	}
}

func TestCheckGracefulRampSlack(t *testing.T) {
	spec := GracefulSpec{
		OutageStart:   10,
		OutageEnd:     20,
		PreFrom:       5,
		PacketSize:    1000,
		DegradeBelow:  4000,
		RecoverWithin: 1,
		RampSlack:     4,
	}
	bins := make([]float64, 40)
	for i := range bins {
		bins[i] = 10000
	}
	for i := 10; i < 28; i++ {
		bins[i] = 100
	}
	// Degraded to 100 B/s: the ramp term adds 4·1000/100 = 40 s.
	rates := []RatePoint{{T: 0, Rate: 10000}, {T: 11, Rate: 100}, {T: 20.2, Rate: 10000}}
	sends := []float64{10, 15, 19.9}
	rep := CheckGraceful(spec, sends, rates, bins, 1)
	if want := 20.0 + 1 + 40; rep.RecoverBy != want {
		t.Fatalf("RecoverBy = %v, want %v", rep.RecoverBy, want)
	}
	if !rep.Recovered || rep.RecoveredAt != 28 {
		t.Fatalf("recovery at 28 s inside the ramp budget rejected: %s", rep)
	}
}

// TestWireBlackoutSoak is the one fault vocabulary at work on the real
// transport: the UDP-framed wire endpoints run over a simulated path, and
// a feedback blackout reaches them the way it reaches any simulated flow,
// through Schedule.Apply. Every no-feedback expiry during the blackout
// halves the allowed rate, down to the floor of one packet per 64 s and
// no further; after BlackholeOff the rate comes back.
func TestWireBlackoutSoak(t *testing.T) {
	const (
		pktSize         = 500
		from, to, until = 5.0, 400.0, 520.0
	)
	sched := sim.NewScheduler()
	topo := netsim.NewTopology(sched, nil)
	topo.Link("a", "b", netsim.LinkSpec{Bandwidth: 2e6, Delay: 0.005, QueueLimit: 60})
	topo.Build()
	sc := Blackout("b->a", from, to)
	sc.Apply(topo)
	send, _ := wire.NewSimPair(topo, "a", "b", 1, nil, wire.Config{PacketSize: pktSize})
	sched.At(0, send.Run)

	sched.RunUntil(from)
	before := send.Stats()
	if before.Rate < 100e3 {
		t.Fatalf("before the blackout: %+v", before)
	}
	sched.RunUntil(from + 0.1) // reports already on the wire have landed
	floor := float64(pktSize) / 64
	prev := send.Stats()
	for sched.Now() < to && sched.Step() {
		st := send.Stats()
		want := prev.Rate
		if st.NoFeedbackCuts == prev.NoFeedbackCuts+1 {
			want = math.Max(prev.Rate/2, floor)
		}
		if st.Rate != want || st.NoFeedbackCuts > prev.NoFeedbackCuts+1 || st.Feedbacks != prev.Feedbacks {
			t.Fatalf("t=%v: rate %v after %d expiries and %d reports; was %v after %d and %d",
				sched.Now(), st.Rate, st.NoFeedbackCuts, st.Feedbacks, prev.Rate, prev.NoFeedbackCuts, prev.Feedbacks)
		}
		prev = st
	}
	if prev.Rate != floor || prev.NoFeedbackCuts < 15 {
		t.Fatalf("end of the blackout: rate %v after %d expiries, want the floor %v", prev.Rate, prev.NoFeedbackCuts, floor)
	}

	sched.RunUntil(until)
	if after := send.Stats(); after.Rate < before.Rate/2 || after.Feedbacks == prev.Feedbacks {
		t.Fatalf("%v s after the heal: %+v; before the blackout: %+v", until-to, after, before)
	}
}
