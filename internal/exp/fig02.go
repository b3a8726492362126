package exp

import (
	"fmt"
	"io"
	"math"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/tfrcsim"
)

// Fig02Params reproduces Figure 2: a single TFRC flow through a link with
// idealized periodic loss that switches rate at two instants, exposing
// the Average Loss Interval dynamics.
type Fig02Params struct {
	// The loss rate steps at T1 and T2 (paper: 6 s, 9 s, 16 s in all).
	T1, T2   float64
	Duration float64
}

// Figure 2's periodic loss rates before T1, until T2 and to the end.
const fig2P1, fig2P2, fig2P3 = 0.01, 0.10, 0.005

// DefaultFig02 matches the paper's setup.
func DefaultFig02() Fig02Params {
	return Fig02Params{T1: 6, T2: 9, Duration: 16}
}

// Validate implements Params.
func (p *Fig02Params) Validate() error {
	var v checks
	check(&v, 0 < p.T1 && p.T1 < p.T2 && p.T2 < p.Duration, "need 0 < T1 < T2 < Duration, got T1=%v T2=%v Duration=%v", p.T1, p.T2, p.Duration)
	return v.err
}

func init() {
	Define(single("fig2", "Average Loss Interval dynamics under periodic loss",
		[]string{"2"}, DefaultFig02, fig02Cell))
}

// Fig02Point is one receiver-side sample, taken once per feedback.
type Fig02Point struct {
	Time         float64
	CurrentS0    float64 // packets in the open interval
	EstInterval  float64 // the receiver's average loss interval
	EstLossRate  float64 // p
	SqrtLossRate float64
	TxRate       float64 // sender's allowed rate, bytes/sec
}

// Fig02Result is the time series of Figure 2's three panels.
type Fig02Result struct{ Points []Fig02Point }

// lossDropper drops data packets on their way to a receiver, at a rate
// switchable at runtime. With a generator it drops each with probability
// p and keeps no count: the step-changing random loss of Figure 18.
// Without one it drops every every-th (none while every is 0) and draws
// no random number: the idealized periodic loss of figures 2 and 19-21.
type lossDropper struct {
	nw    *netsim.Network
	next  netsim.Agent
	every int
	count int
	p     float64
	rng   *sim.Rand
}

func (d *lossDropper) Recv(pk *netsim.Packet) {
	if pk.Kind == netsim.KindData && d.drops() {
		d.nw.Free(pk)
		return
	}
	d.next.Recv(pk)
}

func (d *lossDropper) drops() bool {
	if d.rng != nil {
		return d.rng.Bernoulli(d.p)
	}
	if d.every <= 0 {
		return false
	}
	d.count++
	return d.count%d.every == 0
}

// lossyPipe is the testbed of figures 2, 18 and 19-21: one TFRC flow of
// config cfg on sched over a link of bandwidth bw, base round-trip rtt
// and a buffer of limit packets, all to spare, so the only loss is
// drop's, which it puts in front of the receiver.
func lossyPipe(sched *sim.Scheduler, bw, rtt float64, limit int, cfg tfrcsim.Config, drop *lossDropper) (*tfrcsim.Sender, *tfrcsim.Receiver) {
	t := netsim.NewTopology(sched, nil)
	t.Link("src", "dst", netsim.LinkSpec{
		Bandwidth: bw, Delay: rtt / 2,
		Queue: netsim.QueueDropTail, QueueLimit: limit,
	})
	nw := t.Build()
	a, b := t.Lookup("src"), t.Lookup("dst")
	rcv := tfrcsim.NewReceiver(nw, b, 5, 0, cfg)
	snd := tfrcsim.NewSender(nw, a, b.ID, 1, 2, 0, cfg)
	drop.nw, drop.next = nw, rcv
	b.Attach(1, drop)
	return snd, rcv
}

// lossyPipeRTT is the base round-trip of figures 2 and 19-21, in
// seconds: the paper's plots imply tens of milliseconds.
const lossyPipeRTT = 0.05

// periodicLossPipe is the lossy pipe of figures 2 and 19-21: a 1 Gb/s
// link and the default TFRC config, losing one packet in every.
func periodicLossPipe(sched *sim.Scheduler, every int) (*tfrcsim.Sender, *tfrcsim.Receiver, *lossDropper) {
	drop := &lossDropper{every: every}
	snd, rcv := lossyPipe(sched, 1e9, lossyPipeRTT, 100000, tfrcsim.DefaultConfig(), drop)
	return snd, rcv, drop
}

func fig02Cell(sched *sim.Scheduler, pr *Fig02Params) *Fig02Result {
	snd, rcv, drop := periodicLossPipe(sched, int(1/fig2P1))
	sched.At(pr.T1, func() { drop.every = int(1 / fig2P2) })
	sched.At(pr.T2, func() { drop.every = int(1 / fig2P3) })

	res := &Fig02Result{}
	var sample func()
	sample = func() {
		if h := rcv.Core().History(); h.HaveLoss() {
			p := h.LossEventRate()
			res.Points = append(res.Points, Fig02Point{
				Time:         sched.Now(),
				CurrentS0:    h.Open(),
				EstInterval:  h.AvgInterval(),
				EstLossRate:  p,
				SqrtLossRate: math.Sqrt(p),
				TxRate:       snd.Rate(),
			})
		}
		sched.After(lossyPipeRTT, sample)
	}
	sched.After(lossyPipeRTT, sample)

	snd.Start(0)
	sched.RunUntil(pr.Duration)
	return res
}

// Table implements Result: "time s0 estInterval p sqrtP txRateKBps"
// rows.
func (r *Fig02Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figure 2: Average Loss Interval dynamics under periodic loss")
	fmt.Fprintln(w, "# time\ts0\testInterval\tlossRate\tsqrtLossRate\ttxRate(KB/s)")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%.2f\t%.1f\t%.1f\t%.4f\t%.4f\t%.1f\n",
			p.Time, p.CurrentS0, p.EstInterval, p.EstLossRate, p.SqrtLossRate, p.TxRate/1000)
	}
}
