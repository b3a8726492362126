package exp

import "fmt"

// checks collects a Validate method's verdict. The first failing check
// sets err and every later one is skipped, so a method written as one
// check per field, in field order, reports what a chain of ifs would.
// Like that chain, a check formats nothing until it fails: boxing a
// value for fmt heap-allocates, and parameters that pass must not.
type checks struct{ err error }

// number is what the range checks compare: every numeric field type of
// the parameter structs.
type number interface{ ~int | ~int64 | ~float64 }

// fail records the formatted message unless an earlier check failed.
func (v *checks) fail(format string, args ...any) {
	if v.err == nil {
		v.err = fmt.Errorf(format, args...)
	}
}

// check is the escape for conditions particular to one experiment: it
// fails with the formatted message unless ok holds. The message's
// arguments are numbers of one type, so a passing check boxes nothing;
// a message that needs a string calls fail under its own if.
func check[T number](v *checks, ok bool, format string, args ...T) {
	if !ok {
		boxed := make([]any, len(args))
		for i, a := range args {
			boxed[i] = a
		}
		v.fail(format, boxed...)
	}
}

// positive requires every x > 0. Like nonNegative and atLeast it takes
// one field or a spread slice field (p.LinkMbps...) and names the
// offending value either way; an empty slice passes, so pair it with
// nonEmpty.
func positive[T number](v *checks, name string, xs ...T) {
	for _, x := range xs {
		if !(x > 0) {
			v.fail("%s must be positive, got %v", name, x)
		}
	}
}

// nonNegative requires every x >= 0.
func nonNegative[T number](v *checks, name string, xs ...T) {
	for _, x := range xs {
		if !(x >= 0) {
			v.fail("%s must be non-negative, got %v", name, x)
		}
	}
}

// atLeast requires every x >= lo.
func atLeast[T number](v *checks, name string, lo T, xs ...T) {
	for _, x := range xs {
		if !(x >= lo) {
			v.fail("%s must be at least %v, got %v", name, lo, x)
		}
	}
}

// nonEmpty requires a slice field to have n > 0 elements.
func nonEmpty(v *checks, name string, n int) {
	if n <= 0 {
		v.fail("%s must be non-empty", name)
	}
}

// window requires 0 <= a < b: a measurement start inside a duration.
func window(v *checks, aName string, a float64, bName string, b float64) {
	if !(0 <= a && a < b) {
		v.fail("need 0 <= %s < %s, got %s=%v %s=%v", aName, bName, aName, a, bName, b)
	}
}

// maxBins caps Duration/BinWidth, the length of a monitor series: twenty
// times the most any default or preset asks for (fig11's paper preset,
// 5000 s in 0.1 s bins), and far below a series too large to allocate.
const maxBins = 1e6

// binCount requires duration/binWidth <= maxBins. It judges only a
// positive binWidth; pair it with positive or nonNegative for the rest.
func binCount(v *checks, duration, binWidth float64) {
	if binWidth > 0 {
		check(v, duration/binWidth <= maxBins, "need Duration/BinWidth <= %v bins, got Duration=%v BinWidth=%v", maxBins, duration, binWidth)
	}
}
