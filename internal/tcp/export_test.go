package tcp

// CumAck returns the current cumulative acknowledgment (next expected
// sequence).
func (s *Sink) CumAck() int64 { return s.next }
