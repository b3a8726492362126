package cc

// Vegas is the delay-based controller of the zoo (Brakmo's TCP Vegas,
// the family Rodríguez-Pérez et al. analyze): it estimates how many of
// its own packets sit queued at the bottleneck as
//
//	diff = cwnd · (rtt − baseRTT) / rtt
//
// once per RTT (rtt being the epoch's minimum sample, baseRTT the
// connection's minimum ever), grows by one packet per RTT while
// diff < alpha, shrinks by one while diff > beta, and exits slow start
// once diff exceeds gamma. Loss still halves — Vegas keeps Reno's loss
// response as its safety net.
//
// Two classic pitfalls of this estimator are deliberate, documented
// behavior (see the "gallery of solutions" catalog and the package
// tests):
//
//   - Persistent queues: in equilibrium every Vegas flow parks between
//     alpha and beta packets in the bottleneck queue, so the queue never
//     drains — the standing-queue problem.
//   - Latecomer advantage: a flow joining a loaded path measures the
//     standing queue inside its baseRTT, so it targets alpha..beta
//     packets *on top of* the queue it cannot see, pushing real
//     occupancy up and stealing share from incumbents whose estimates
//     are honest.
type Vegas struct {
	p         VegasParams
	maxWindow float64

	baseRTT  float64 // minimum RTT ever sampled (the propagation estimate)
	epochMin float64 // minimum RTT sampled this epoch; 0 = none yet
	acked    float64 // packets acked this epoch
	target   float64 // epoch length: cwnd at epoch start, in packets

	home *arena //tfrc:keep arena co-tenant; Release returns the value to it
}

// Init re-initializes the controller for a new connection, filling
// zero-valued tuning with the 1/3/1 defaults.
func (v *Vegas) Init(p VegasParams, maxWindow float64) {
	p.fill()
	*v = Vegas{p: p, maxWindow: maxWindow, home: v.home}
}

// OnAck implements Controller: standard slow-start growth below
// ssthresh, and once a window's worth of packets has been acked the
// per-RTT Vegas adjustment runs on the epoch's delay estimate.
//
//tfrc:hotpath
func (v *Vegas) OnAck(st *State, newly int64) {
	if st.Cwnd < st.Ssthresh {
		st.Cwnd += 1
		if st.Cwnd > st.Ssthresh {
			st.Cwnd = st.Ssthresh
		}
		if st.Cwnd > v.maxWindow {
			st.Cwnd = v.maxWindow
		}
	}
	v.acked += float64(newly)
	if v.acked >= v.target {
		v.epoch(st)
	}
}

// epoch closes one RTT's worth of acknowledgments: compute the queued
// estimate and steer cwnd toward the alpha..beta band.
//
//tfrc:hotpath
func (v *Vegas) epoch(st *State) {
	if v.epochMin > 0 && v.baseRTT > 0 {
		diff := st.Cwnd * (v.epochMin - v.baseRTT) / v.epochMin
		if st.Cwnd < st.Ssthresh {
			// Modified slow start: leave it as soon as the path shows a
			// standing queue of more than gamma packets.
			if diff > v.p.Gamma {
				st.Ssthresh = st.Cwnd
			}
		} else if diff < v.p.Alpha {
			st.Cwnd += 1
		} else if diff > v.p.Beta {
			st.Cwnd -= 1
			if st.Cwnd < 2 {
				st.Cwnd = 2
			}
			// Ssthresh follows the window down: otherwise the next ack
			// re-enters slow start and bounces the window straight back.
			if st.Ssthresh > st.Cwnd {
				st.Ssthresh = st.Cwnd
			}
		}
		if st.Cwnd > v.maxWindow {
			st.Cwnd = v.maxWindow
		}
	}
	v.acked = 0
	v.target = st.Cwnd
	v.epochMin = 0
}

// OnLoss implements Controller: Vegas retains the Reno cut as its
// congestion backstop.
//
//tfrc:hotpath
func (v *Vegas) OnLoss(st *State, flight int64) { renoCut(st, flight) }

// OnLostSegment implements Controller.
//
//tfrc:hotpath
func (v *Vegas) OnLostSegment(st *State) {}

// OnTimeout implements Controller: Reno collapse plus a fresh epoch.
//
//tfrc:hotpath
func (v *Vegas) OnTimeout(st *State, flight int64) {
	renoTimeout(st, flight)
	v.acked = 0
	v.target = st.Cwnd
	v.epochMin = 0
}

// OnRTTSample implements Controller: track the connection minimum (the
// propagation-delay estimate) and the per-epoch minimum.
//
//tfrc:hotpath
func (v *Vegas) OnRTTSample(st *State, rtt float64) {
	if rtt <= 0 {
		return
	}
	if v.baseRTT == 0 || rtt < v.baseRTT {
		v.baseRTT = rtt
	}
	if v.epochMin == 0 || rtt < v.epochMin {
		v.epochMin = rtt
	}
}

// Release hands the controller back to its arena.
func (v *Vegas) Release() {
	if v.home == nil {
		return
	}
	h := v.home
	v.home = nil
	h.vegas.Put(v)
}
