// Package cc defines the sender-side congestion-control seam: a small
// Controller contract that window-based transports consult at every
// acknowledgment, loss signal, timeout, and RTT sample, plus four rival
// algorithms selected by name — classic Reno arithmetic, a Vegas-style
// delay-based sender, a LEDBAT-style background transport, and TCP
// Relentless — that all plug into the same TCP loss-recovery machinery
// (internal/tcp) and therefore into the same scenario/arena/experiment
// stack the paper's figures run on.
//
// The split follows the shape real stacks use: the transport owns the
// *mechanics* (sequence numbers, SACK scoreboards, retransmit timers,
// recovery-episode bookkeeping) and the Controller owns the *policy*
// (how the congestion window reacts to acks, losses, and delay). The
// sender keeps the window in a cc.State it owns by value; controllers
// mutate it through the hooks and never allocate on those paths, so a
// controller call costs arithmetic, not heap traffic.
//
// Controllers are value-embeddable plain structs with exported Init
// re-initializers, and cc.New draws them from a scheduler-attached
// arena (recycled wholesale by Scheduler.Reset, or one at a time via
// Controller.Release), per the simulator's pooling discipline.
package cc

// State is the sender-owned congestion state a Controller drives. The
// transport reads Cwnd (packets, fractional) to clock transmissions;
// Ssthresh separates slow start from congestion avoidance for the
// controllers that keep that phase distinction. Rate-based transports
// (TFRC itself) stay outside this seam: they are driven by a throughput
// equation, not a window, and remain their own agents.
type State struct {
	// Cwnd is the congestion window in packets. The transport caps the
	// usable window at its own MaxWindow; controllers keep Cwnd within
	// [1, maxWindow] themselves.
	Cwnd float64
	// Ssthresh is the slow-start threshold in packets.
	Ssthresh float64
}

// Controller is the sender-side congestion-control contract. The TCP
// sender invokes the hooks at fixed points of its ACK clock; every hook
// runs on the simulator hot path and must not allocate.
//
// The transport retains the window *mechanics* that are tied to packet
// conservation rather than congestion policy: Reno/NewReno dup-ACK
// inflation and partial-ACK deflation operate on State.Cwnd directly,
// and leaving fast recovery restores Cwnd = Ssthresh — controllers
// express their cut policy by what they leave in Ssthresh.
type Controller interface {
	// OnAck reports a cumulative acknowledgment of newly packets and is
	// where the window grows. It is not called while the transport is in
	// fast recovery (packet conservation governs there).
	OnAck(st *State, newly int64)
	// OnLoss reports the start of a loss episode (the classic at most
	// once-per-window window-cut decision), with flight packets
	// outstanding at detection.
	OnLoss(st *State, flight int64)
	// OnLostSegment reports one segment deemed lost — it fires for every
	// distinct hole the transport retransmits within an episode,
	// including the first, so controllers that react per lost segment
	// (Relentless) see the full count while halving controllers ignore
	// it.
	OnLostSegment(st *State)
	// OnTimeout reports a retransmit-timer expiry with flight packets
	// outstanding.
	OnTimeout(st *State, flight int64)
	// OnRTTSample feeds every RTT measurement (seconds), before OnAck
	// for the acknowledgment that carried it. Delay-based controllers
	// live here; loss-based ones ignore it.
	OnRTTSample(st *State, rtt float64)
	// Release hands the controller back to its arena for reuse by a
	// later New on the same scheduler. Optional — Scheduler.Reset
	// reclaims every controller wholesale — but senders that are
	// recycled mid-run (web mice) release their controller with
	// themselves.
	Release()
}

// renoGrow is the classic window-growth rule shared by the loss-based
// controllers: slow start below ssthresh (one packet per ACK, clamped to
// ssthresh), congestion avoidance above (1/cwnd per ACK), capped at
// maxWindow.
//
//tfrc:hotpath
func renoGrow(st *State, maxWindow float64) {
	if st.Cwnd < st.Ssthresh {
		st.Cwnd += 1
		if st.Cwnd > st.Ssthresh {
			st.Cwnd = st.Ssthresh
		}
	} else {
		st.Cwnd += 1 / st.Cwnd
	}
	if st.Cwnd > maxWindow {
		st.Cwnd = maxWindow
	}
}

// renoCut is the classic multiplicative window cut: half the flight,
// floored at two packets.
//
//tfrc:hotpath
func renoCut(st *State, flight int64) {
	st.Ssthresh = float64(flight) / 2
	if st.Ssthresh < 2 {
		st.Ssthresh = 2
	}
	st.Cwnd = st.Ssthresh
}

// renoTimeout is the classic timeout collapse: remember half the flight
// and fall back to one packet of slow start.
//
//tfrc:hotpath
func renoTimeout(st *State, flight int64) {
	st.Ssthresh = float64(flight) / 2
	if st.Ssthresh < 2 {
		st.Ssthresh = 2
	}
	st.Cwnd = 1
}
