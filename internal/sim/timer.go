package sim

// Timer is a restartable one-shot timer bound to a scheduler. It wraps the
// raw Event API so protocol code can re-arm a single logical timer (an RTO,
// a feedback timer, a no-feedback timer) without tracking event handles.
//
// A Timer is designed to be embedded by value in agent structs: call Init
// (or the allocation-free InitArg) before first use. The zero value is
// unusable until initialized.
//
// A timer normally owns one exact scheduler event. Calling Coarse after
// Init switches it to batched mode: deadlines round up to the tick of a
// shared timer Wheel and many timers fire from one scheduler event (see
// wheel.go). Protocol timers whose precision requirement is "about one
// RTT" — TFRC feedback and no-feedback timers — use this to keep a
// million flows from meaning a million resident queue entries.
type Timer struct {
	sched *Scheduler
	afn   func(any)
	arg   any
	ev    Handle

	wheel *Wheel // non-nil: batched coarse mode
	wgen  uint32 // bumped on stop/re-arm; stale wheel entries mismatch
	wtick int64  // pending tick in coarse mode; -1 when idle
}

// timerFireFn is the shared scheduler callback: the timer itself rides in
// the event's arg slot, so arming a timer never builds a closure.
func timerFireFn(x any) { x.(*Timer).fire() }

// fire invokes the timer's callback; the pending state was already
// cleared by the caller (exact event pop or wheel tick processing).
func (t *Timer) fire() {
	t.afn(t.arg)
}

// Init prepares an embedded timer that runs fn when it expires.
func (t *Timer) Init(s *Scheduler, fn func()) { t.InitArg(s, callFn, fn) }

// InitArg prepares an embedded timer that runs fn(arg) when it expires.
// With fn a package-level function and arg the owning agent, a timer costs
// no allocations at all — neither at Init nor when (re)armed.
func (t *Timer) InitArg(s *Scheduler, fn func(any), arg any) {
	t.sched = s
	t.afn = fn
	t.arg = arg
	t.ev = Handle{}
	t.wheel = nil
	t.wtick = -1
}

// Coarse switches an idle timer to batched mode on the given wheel
// (which must belong to the timer's scheduler): every subsequent
// Reset rounds the deadline up to the wheel's tick and fires
// from the wheel's shared per-tick event — up to one tick late, never
// early. Call once after Init/InitArg, before the timer is first armed.
func (t *Timer) Coarse(w *Wheel) {
	t.wheel = w
	t.wtick = -1
}

// Reset (re)arms the timer to fire d seconds from now, cancelling any
// pending expiry.
func (t *Timer) Reset(d float64) {
	if t.wheel != nil {
		t.wheel.cancel(t)
		t.wheel.arm(t, t.sched.now+d)
		return
	}
	t.Stop()
	t.ev = t.sched.AfterArg(d, timerFireFn, t)
}

// Stop cancels a pending expiry. Stopping an idle timer is a no-op.
func (t *Timer) Stop() {
	if t.wheel != nil {
		t.wheel.cancel(t)
		return
	}
	t.sched.Cancel(t.ev)
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool {
	if t.wheel != nil {
		return t.wtick >= 0
	}
	return t.ev.Scheduled()
}
