package wire

// IsFeedback reports whether the datagram is a TFRC feedback packet.
func IsFeedback(b []byte) bool {
	return len(b) >= 2 && b[0] == magic && b[1] == typeFeedback
}
