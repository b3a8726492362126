package cc

// Relentless is Mathis's Relentless TCP (the variant Diana & Lochin
// model analytically): congestion avoidance is standard, but instead of
// halving on a loss episode the window is reduced by exactly the number
// of segments lost — the sender repairs the hole and keeps going. The
// result deliberately abandons AIMD fairness: against halving flows at
// the same bottleneck, Relentless converges to whatever share loss
// leaves it, which is nearly all of it. The ccfair experiments register
// that unfairness as a first-class, reproducible measurement.
type Relentless struct {
	maxWindow float64
	home      *arena // arena co-tenant; Release returns the value to it
}

// relentlessMinCwnd floors the window under per-loss decrements, in
// packets.
const relentlessMinCwnd = 2

// Init re-initializes the controller for a new connection.
func (r *Relentless) Init(maxWindow float64) {
	r.maxWindow = maxWindow
}

// OnAck implements Controller: growth is standard Reno.
func (r *Relentless) OnAck(st *State, newly int64) { renoGrow(st, r.maxWindow) }

// OnLoss implements Controller: no episode cut — the decrease happens
// per lost segment in OnLostSegment.
func (r *Relentless) OnLoss(st *State, flight int64) {}

// OnLostSegment implements Controller: one packet off the window per
// segment deemed lost, floored at relentlessMinCwnd. Ssthresh follows
// the window down so recovery exits in congestion avoidance, not slow
// start.
func (r *Relentless) OnLostSegment(st *State) {
	st.Cwnd -= 1
	if st.Cwnd < relentlessMinCwnd {
		st.Cwnd = relentlessMinCwnd
	}
	st.Ssthresh = st.Cwnd
}

// OnTimeout implements Controller: timeouts collapse like standard TCP
// — Relentless modifies only fast recovery.
func (r *Relentless) OnTimeout(st *State, flight int64) { renoTimeout(st, flight) }

// OnRTTSample implements Controller.
func (r *Relentless) OnRTTSample(st *State, rtt float64) {}

// Release hands the controller back to its arena.
func (r *Relentless) Release() {
	if r.home == nil {
		return
	}
	h := r.home
	r.home = nil
	h.relentless.Put(r)
}
