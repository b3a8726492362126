package exp

import (
	"math"
	"testing"
)

// TestHouseThresholds: every buffer of two packets or more gets RED
// thresholds netsim accepts, and from 11 packets up — every buffer that
// ran before the small ones were fixed — they are the historical values
// to the bit.
func TestHouseThresholds(t *testing.T) {
	for limit := 2; limit <= 300; limit++ {
		lo, hi := houseThresholds(limit)
		if !(0 < lo && lo < hi && hi <= float64(limit)) {
			t.Errorf("limit %d: thresholds %v, %v violate 0 < min < max <= limit", limit, lo, hi)
		}
		if limit >= 11 {
			if oldLo, oldHi := math.Max(5, float64(limit)/10), float64(limit)/2; lo != oldLo || hi != oldHi {
				t.Errorf("limit %d: thresholds %v, %v moved from %v, %v", limit, lo, hi, oldLo, oldHi)
			}
		}
	}
	if limit, red := houseQueue(15e6, 0.1); limit != 187 || red.Limit != 187 || red.MinThresh != 18.7 || red.MaxThresh != 93.5 {
		t.Errorf("15 Mb/s house queue: limit %d, RED %+v", limit, red)
	}
	if limit := houseLimit(0.5e6, 0.1); limit != 10 {
		t.Errorf("slow link: limit %d, want the floor of 10", limit)
	}
}
