package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean = %v", m)
	}
	if s := StdDev(xs); !almostEq(s, 2, 1e-12) {
		t.Fatalf("stddev = %v", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("empty/singleton cases")
	}
}

func TestCoV(t *testing.T) {
	if c := CoV([]float64{5, 5, 5, 5}); c != 0 {
		t.Fatalf("constant series CoV = %v", c)
	}
	if c := CoV([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEq(c, 0.4, 1e-12) {
		t.Fatalf("CoV = %v, want 0.4", c)
	}
	if CoV([]float64{0, 0}) != 0 {
		t.Fatal("zero-mean CoV not 0")
	}
}

func TestRebin(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	got := Rebin(xs, 2)
	want := []float64{3, 7, 11} // trailing odd element dropped
	if len(got) != len(want) {
		t.Fatalf("rebin = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rebin = %v, want %v", got, want)
		}
	}
	if one := Rebin(xs, 1); &one[0] == &xs[0] {
		t.Fatal("Rebin(k=1) must copy")
	}
}

func TestRebinConservesMassProperty(t *testing.T) {
	f := func(raw []uint8, k8 uint8) bool {
		k := int(k8%6) + 1
		xs := make([]float64, len(raw))
		var total float64
		for i, v := range raw {
			xs[i] = float64(v)
		}
		n := (len(xs) / k) * k
		for i := 0; i < n; i++ {
			total += xs[i]
		}
		var sum float64
		for _, v := range Rebin(xs, k) {
			sum += v
		}
		return almostEq(sum, total, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalence(t *testing.T) {
	a := []float64{10, 20, 0, 0, 5}
	b := []float64{20, 10, 5, 0, 5}
	series, n := Equivalence(a, b)
	if n != 4 {
		t.Fatalf("defined = %d, want 4 (both-zero bin skipped)", n)
	}
	want := []float64{0.5, 0.5, 0, 1}
	for i := range want {
		if !almostEq(series[i], want[i], 1e-12) {
			t.Fatalf("series = %v, want %v", series, want)
		}
	}
	if r := EquivalenceRatio(a, b); !almostEq(r, 0.5, 1e-12) {
		t.Fatalf("ratio = %v, want 0.5", r)
	}
}

func TestEquivalenceBoundsProperty(t *testing.T) {
	// Equivalence samples always lie in [0,1] and are symmetric in the
	// argument order.
	f := func(ra, rb []uint8) bool {
		n := len(ra)
		if len(rb) < n {
			n = len(rb)
		}
		a := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i], b[i] = float64(ra[i]), float64(rb[i])
		}
		s1, _ := Equivalence(a, b)
		s2, _ := Equivalence(b, a)
		if len(s1) != len(s2) {
			return false
		}
		for i := range s1 {
			if s1[i] < 0 || s1[i] > 1 || !almostEq(s1[i], s2[i], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanCI90(t *testing.T) {
	// 14 runs, like the paper's Figure 9 methodology.
	xs := []float64{10, 11, 9, 10, 12, 8, 10, 11, 9, 10, 10, 11, 9, 10}
	mean, hw := MeanCI90(xs)
	if !almostEq(mean, 10, 1e-9) {
		t.Fatalf("mean = %v", mean)
	}
	// t(13, 90%) = 1.771; s ≈ 1.038; hw ≈ 1.771·1.038/√14 ≈ 0.491.
	if hw < 0.4 || hw > 0.6 {
		t.Fatalf("half-width = %v, want ≈ 0.49", hw)
	}
	if _, hw := MeanCI90([]float64{5}); hw != 0 {
		t.Fatal("singleton CI not 0")
	}
}
