package cc

// LEDBAT is the background ("scavenger") transport of the zoo, after
// RFC 6817: it estimates the path's queueing delay as the excess of
// each RTT sample over the minimum observed — the one-way-delay
// estimate of the RFC, under the simulator's usual clean-ACK-path
// simplification — and steers that estimate toward a small target:
//
//	offTarget = (target − queueDelay) / target
//	cwnd     += gain · offTarget · newlyAcked / cwnd
//
// with target 25 ms and gain 1 (ledbatTarget, ledbatGain). Under the
// target the window grows at most gain packets per RTT (a
// ceiling of standard TCP additive increase); over it the window
// shrinks linearly, and the further the overshoot the faster the
// decrease. Any loss-filling competitor (Reno, Relentless) drives the
// queue past the target long before it builds loss, so LEDBAT backs
// away and cedes the capacity — yielding is the design goal, and the
// fairness experiments demonstrate the starvation side of it.
type LEDBAT struct {
	maxWindow float64

	baseRTT float64 // minimum RTT ever sampled
	qdelay  float64 // latest queueing-delay estimate

	home *arena // arena co-tenant; Release returns the value to it
}

// ledbatTarget is the queueing-delay target in seconds. RFC 6817
// allows up to 100 ms; 25 ms sits well below the tens-of-milliseconds
// queues the paper's scenarios build, so the transport actually yields
// instead of competing. ledbatGain scales the window adjustment: at
// most that many packets of growth per RTT, and proportionally faster
// decrease the further the delay overshoots the target.
const (
	ledbatTarget = 0.025
	ledbatGain   = 1
)

// Init re-initializes the controller for a new connection.
func (l *LEDBAT) Init(maxWindow float64) {
	*l = LEDBAT{maxWindow: maxWindow, home: l.home}
}

// OnAck implements Controller: the proportional delay controller. There
// is no slow-start phase — a background transport creeps up instead of
// bursting into the queue it is trying to keep empty.
func (l *LEDBAT) OnAck(st *State, newly int64) {
	if l.baseRTT == 0 {
		return // no delay estimate yet
	}
	offTarget := (ledbatTarget - l.qdelay) / ledbatTarget
	if offTarget > 1 {
		offTarget = 1
	}
	st.Cwnd += ledbatGain * offTarget * float64(newly) / st.Cwnd
	if st.Cwnd < 1 {
		st.Cwnd = 1
	}
	if st.Cwnd > l.maxWindow {
		st.Cwnd = l.maxWindow
	}
}

// OnLoss implements Controller: loss still halves (RFC 6817 §2.4.2) —
// delay is the primary signal, loss the backstop.
func (l *LEDBAT) OnLoss(st *State, flight int64) {
	st.Cwnd = st.Cwnd / 2
	if st.Cwnd < 1 {
		st.Cwnd = 1
	}
	st.Ssthresh = st.Cwnd
}

// OnLostSegment implements Controller.
func (l *LEDBAT) OnLostSegment(st *State) {}

// OnTimeout implements Controller.
func (l *LEDBAT) OnTimeout(st *State, flight int64) {
	st.Ssthresh = float64(flight) / 2
	if st.Ssthresh < 2 {
		st.Ssthresh = 2
	}
	st.Cwnd = 1
}

// OnRTTSample implements Controller: maintain the base-delay minimum
// and the current queueing-delay estimate.
func (l *LEDBAT) OnRTTSample(st *State, rtt float64) {
	if rtt <= 0 {
		return
	}
	if l.baseRTT == 0 || rtt < l.baseRTT {
		l.baseRTT = rtt
	}
	l.qdelay = rtt - l.baseRTT
}

// Release hands the controller back to its arena.
func (l *LEDBAT) Release() {
	if l.home == nil {
		return
	}
	h := l.home
	l.home = nil
	h.ledbat.Put(l)
}
