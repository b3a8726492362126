package cc

// Reno is the classic loss-based controller: slow start to ssthresh,
// additive 1/cwnd growth above it, halve on a loss episode, collapse to
// one packet on timeout. It reproduces the arithmetic the TCP sender
// used before the congestion-control seam existed, bit for bit — the
// golden figures pin that equivalence.
type Reno struct {
	maxWindow float64
	home      *arena // arena co-tenant; Release returns the value to it
}

// Init re-initializes the controller for a new connection.
func (r *Reno) Init(maxWindow float64) {
	r.maxWindow = maxWindow
}

// OnAck implements Controller.
func (r *Reno) OnAck(st *State, newly int64) { renoGrow(st, r.maxWindow) }

// OnLoss implements Controller: the classic halving.
func (r *Reno) OnLoss(st *State, flight int64) { renoCut(st, flight) }

// OnLostSegment implements Controller: halving controllers react per
// episode, not per segment.
func (r *Reno) OnLostSegment(st *State) {}

// OnTimeout implements Controller.
func (r *Reno) OnTimeout(st *State, flight int64) { renoTimeout(st, flight) }

// OnRTTSample implements Controller: loss-based control ignores delay.
func (r *Reno) OnRTTSample(st *State, rtt float64) {}

// Release hands the controller back to its arena (no-op for
// value-embedded controllers not drawn from one).
func (r *Reno) Release() {
	if r.home == nil {
		return
	}
	h := r.home
	r.home = nil
	h.reno.Put(r)
}
