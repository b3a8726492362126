package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDataRoundTrip(t *testing.T) {
	sendTime := time.UnixMicro(time.Now().UnixMicro()) // micro precision
	hdr := DataHeader{Seq: 12345, SendTime: sendTime, SenderRTT: 87 * time.Millisecond}
	payload := []byte("hello tfrc")
	pkt := AppendData(nil, hdr, payload)
	got, gotPayload, err := ParseData(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != hdr.Seq || !got.SendTime.Equal(hdr.SendTime) || got.SenderRTT != hdr.SenderRTT {
		t.Fatalf("header mismatch: %+v vs %+v", got, hdr)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatalf("payload mismatch: %q", gotPayload)
	}
}

func TestFeedbackRoundTrip(t *testing.T) {
	fb := FeedbackPacket{
		LossEventRate: 0.0123,
		RecvRate:      987654.5,
		EchoSeq:       99,
		EchoSendTime:  time.UnixMicro(1718000000123456),
		EchoDelay:     1500 * time.Microsecond,
	}
	pkt := AppendFeedback(nil, fb)
	got, err := ParseFeedback(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.LossEventRate != fb.LossEventRate || got.RecvRate != fb.RecvRate ||
		got.EchoSeq != fb.EchoSeq || !got.EchoSendTime.Equal(fb.EchoSendTime) ||
		got.EchoDelay != fb.EchoDelay {
		t.Fatalf("mismatch: %+v vs %+v", got, fb)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x00},
		{magic},
		{magic, 0x7f},
		{0x55, typeData, 0, 0, 0, 0},
		AppendData(nil, DataHeader{}, nil)[:dataHeaderLen-1], // truncated
		AppendFeedback(nil, FeedbackPacket{})[:10],
	}
	for i, b := range cases {
		if _, _, err := ParseData(b); err == nil {
			t.Fatalf("case %d: ParseData accepted garbage", i)
		}
		if _, err := ParseFeedback(b); err == nil {
			t.Fatalf("case %d: ParseFeedback accepted garbage", i)
		}
	}
	// Cross-type confusion.
	if _, _, err := ParseData(AppendFeedback(nil, FeedbackPacket{})); err == nil {
		t.Fatal("ParseData accepted a feedback packet")
	}
	if _, err := ParseFeedback(AppendData(nil, DataHeader{}, nil)); err == nil {
		t.Fatal("ParseFeedback accepted a data packet")
	}
}

func TestClassifiers(t *testing.T) {
	d := AppendData(nil, DataHeader{Seq: 1}, []byte("x"))
	f := AppendFeedback(nil, FeedbackPacket{})
	if !IsData(d) || IsFeedback(d) {
		t.Fatal("data packet misclassified")
	}
	if !IsFeedback(f) || IsData(f) {
		t.Fatal("feedback packet misclassified")
	}
	if IsData([]byte{1}) || IsFeedback(nil) {
		t.Fatal("garbage classified")
	}
}

func TestDataRoundTripProperty(t *testing.T) {
	f := func(seq uint32, rttMicros uint32, payload []byte) bool {
		hdr := DataHeader{
			Seq:       seq,
			SendTime:  time.UnixMicro(1700000000000000),
			SenderRTT: time.Duration(rttMicros) * time.Microsecond,
		}
		pkt := AppendData(nil, hdr, payload)
		got, pl, err := ParseData(pkt)
		return err == nil && got.Seq == seq && got.SenderRTT == hdr.SenderRTT &&
			bytes.Equal(pl, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFeedbackRoundTripProperty(t *testing.T) {
	// Whatever the two rates, a report is accepted exactly when they are
	// in their domain, and an accepted report round-trips bit for bit.
	f := func(p, x float64, unit bool, seq uint32, delayMicros uint32) bool {
		if unit {
			// quick draws floats from the whole range; fold half of them
			// into the domain so both branches are exercised.
			p, x = math.Abs(math.Remainder(p, 1)), math.Abs(x)
		}
		fb := FeedbackPacket{
			LossEventRate: p,
			RecvRate:      x,
			EchoSeq:       seq,
			EchoSendTime:  time.UnixMicro(1700000000000000),
			EchoDelay:     time.Duration(delayMicros) * time.Microsecond,
		}
		got, err := ParseFeedback(AppendFeedback(nil, fb))
		if !(p >= 0 && p <= 1 && x >= 0 && !math.IsInf(x, 1)) {
			return errors.Is(err, ErrMalformed)
		}
		return err == nil && floatBits(got.LossEventRate) == floatBits(p) &&
			floatBits(got.RecvRate) == floatBits(x) &&
			got.EchoSeq == seq && got.EchoDelay == fb.EchoDelay
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestParseFeedbackRejectsForgedRates: the two rates arrive as raw float
// bits. One NaN loss event rate used to make the sender's rate and packet
// interval NaN, and a NaN interval arms a zero timer — the paced sender
// free-ran until the next valid report.
func TestParseFeedbackRejectsForgedRates(t *testing.T) {
	for _, c := range []struct{ p, x float64 }{
		{math.NaN(), 1e5}, {-0.1, 1e5}, {1.5, 1e5}, {math.Inf(1), 1e5},
		{0.01, math.NaN()}, {0.01, -1}, {0.01, math.Inf(1)}, {0.01, math.Inf(-1)},
	} {
		forged := AppendFeedback(nil, FeedbackPacket{LossEventRate: c.p, RecvRate: c.x})
		if fb, err := ParseFeedback(forged); err == nil {
			t.Errorf("p=%v x_recv=%v accepted as %+v", c.p, c.x, fb)
		}
	}
	for _, c := range []struct{ p, x float64 }{{0, 0}, {1, math.MaxFloat64}, {1e-300, 1e-300}} {
		ok := AppendFeedback(nil, FeedbackPacket{LossEventRate: c.p, RecvRate: c.x})
		if _, err := ParseFeedback(ok); err != nil {
			t.Errorf("p=%v x_recv=%v rejected: %v", c.p, c.x, err)
		}
	}
}

func TestAppendReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 2048)
	pkt := AppendData(buf, DataHeader{Seq: 7}, make([]byte, 100))
	if &pkt[0] != &buf[:1][0] {
		t.Fatal("AppendData reallocated despite capacity")
	}
}
