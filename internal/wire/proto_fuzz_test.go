package wire

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// The two decoders take bytes from the network. Whatever arrives, they
// never panic, and a datagram they accept is one this codec could have
// written: re-encoding the parsed fields gives the same bytes back.

func FuzzParseData(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{magic, typeData})
	f.Add(AppendData(nil, DataHeader{Seq: 7, SendTime: time.UnixMicro(1_700_000_000_000_000), SenderRTT: 50 * time.Millisecond}, []byte("payload")))
	f.Add(AppendData(nil, DataHeader{Seq: math.MaxUint32, SendTime: time.UnixMicro(-1), SenderRTT: math.MaxUint32 * time.Microsecond}, nil))
	f.Add(AppendFeedback(nil, FeedbackPacket{LossEventRate: 0.01, RecvRate: 1e5}))
	f.Fuzz(func(t *testing.T, b []byte) {
		hdr, payload, err := ParseData(b)
		if err != nil {
			return
		}
		if !IsData(b) {
			t.Fatalf("accepted %x, which IsData denies", b)
		}
		if again := AppendData(nil, hdr, payload); !bytes.Equal(again, b) {
			t.Fatalf("accepted %x re-encodes to %x", b, again)
		}
	})
}

func FuzzParseFeedback(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{magic, typeFeedback})
	f.Add(AppendFeedback(nil, FeedbackPacket{LossEventRate: 0.01, RecvRate: 1e5, EchoSeq: 9, EchoSendTime: time.UnixMicro(1_700_000_000_000_000), EchoDelay: time.Millisecond}))
	f.Add(AppendFeedback(nil, FeedbackPacket{LossEventRate: math.NaN(), RecvRate: math.Inf(1)}))
	f.Add(AppendFeedback(nil, FeedbackPacket{LossEventRate: 1, RecvRate: math.MaxFloat64, EchoSeq: math.MaxUint32, EchoSendTime: time.UnixMicro(math.MinInt64), EchoDelay: math.MaxUint32 * time.Microsecond}))
	f.Add(AppendData(nil, DataHeader{Seq: 1}, nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		fb, err := ParseFeedback(b)
		if err != nil {
			return
		}
		if !IsFeedback(b) {
			t.Fatalf("accepted %x, which IsFeedback denies", b)
		}
		if !(fb.LossEventRate >= 0 && fb.LossEventRate <= 1) {
			t.Fatalf("accepted loss event rate %v", fb.LossEventRate)
		}
		if !(fb.RecvRate >= 0) || math.IsInf(fb.RecvRate, 0) {
			t.Fatalf("accepted receive rate %v", fb.RecvRate)
		}
		// A report has a fixed length; bytes after it are ignored.
		if again := AppendFeedback(nil, fb); !bytes.Equal(again, b[:feedbackPacketLen]) {
			t.Fatalf("accepted %x re-encodes to %x", b[:feedbackPacketLen], again)
		}
	})
}
