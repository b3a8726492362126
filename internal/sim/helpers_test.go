package sim

// Run executes events until the queue drains.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// Len returns the number of pending events.
func (s *Scheduler) Len() int { return s.cal.live }
