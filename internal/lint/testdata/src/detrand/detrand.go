// Package detrand exercises the detrand analyzer: nondeterminism
// sources that must be flagged, and the deterministic idioms that must
// not.
package detrand

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

func wallClock() float64 {
	t := time.Now()   // want `time\.Now in deterministic package`
	_ = time.Since(t) // want `time\.Since in deterministic package`
	return 0
}

// wallClockTimers: waiting on the wall clock is as nondeterministic as
// reading it. A package that also drives real I/O (internal/wire's OS
// driver) marks those sites one by one instead of being excluded whole.
func wallClockTimers(f func()) {
	time.Sleep(time.Millisecond)         // want `time\.Sleep in deterministic package`
	<-time.After(time.Millisecond)       // want `time\.After in deterministic package`
	t := time.NewTimer(time.Second)      // want `time\.NewTimer in deterministic package`
	t.Reset(time.Second)                 // methods on an owned timer are not the leak
	time.AfterFunc(time.Millisecond, f)  //tfrclint:allow detrand the OS driver's timers are wall-clock timers
	_ = time.Unix(0, 0).Add(time.Second) // building and comparing times is pure
}

func globalRand() int {
	n := rand.Intn(10)                 // want `global rand\.Intn is seeded from runtime state`
	rand.Shuffle(n, func(i, j int) {}) // want `global rand\.Shuffle is seeded from runtime state`
	return rand.Int()                  // want `global rand\.Int is seeded from runtime state`
}

func seededRandOK() *rand.Rand {
	r := rand.New(rand.NewSource(42)) // constructors with explicit seeds are fine
	_ = r.Intn(10)                    // methods on an owned generator are fine
	return r
}

func fmtMap(m map[string]int) {
	fmt.Println(m) // want `fmt of a map value`
	fmt.Printf("%v\n", len(m))
}

func mapRangeOutput(m map[string]int) {
	for k := range m { // want `iteration over map is order-sensitive`
		fmt.Println(k)
	}
}

func mapRangeCollectSortOK(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // append-then-sort is the sanctioned drain idiom
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func mapRangeCollectNoSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // want `iteration over map is order-sensitive`
		keys = append(keys, k)
	}
	return keys
}

func mapRangeCountOK(m map[string]int) int {
	total := 0
	for _, v := range m { // integer accumulation commutes
		total += v
	}
	return total
}

func mapRangeFloatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `iteration over map is order-sensitive`
		sum += v
	}
	return sum
}

func mapRangeKeyedWriteOK(m, inv map[string]string) {
	for k, v := range m { // keyed writes are set-semantics
		inv[v] = k
	}
}

func mapRangeDeleteOK(m map[string]int) {
	for k, v := range m {
		if v == 0 {
			delete(m, k)
		}
	}
}

func mapRangeMaxOK(m map[string]int) int {
	best := 0
	for _, v := range m { // conditional max-tracking commutes
		if v > best {
			best = v
		}
	}
	return best
}

func mapRangeLastWins(m map[string]int) int {
	var last int
	for _, v := range m { // want `iteration over map is order-sensitive`
		last = v
	}
	return last
}

func mapRangeArbitraryBreak(m map[string]int) int {
	for _, v := range m { // want `iteration over map is order-sensitive`
		return v
	}
	return 0
}

func allowedEscapeHatch(m map[string]int) {
	//tfrclint:allow detrand output order is covered by a sorting post-pass
	for k := range m {
		fmt.Println(k)
	}
}
