package exp

import (
	"fmt"
	"io"
)

// column is one column of a result table with R-typed rows: its header,
// its row verb, the value it prints and — for a column that has one —
// the confidence half-width that follows it, under a "ci" header and
// the same verb, when the table is multi-seed.
type column[R any] struct {
	header, verb string
	value, ci    func(*R) any
}

// writeColumns writes the "# a\tb…" header line and one line per row,
// so the single-seed and multi-seed shapes of a table share one
// statement of every header and verb.
func writeColumns[R any](w io.Writer, cols []column[R], rows []R, multiSeed bool) {
	sep := "# "
	for _, c := range cols {
		fmt.Fprint(w, sep, c.header)
		if c.ci != nil && multiSeed {
			fmt.Fprint(w, "\tci")
		}
		sep = "\t"
	}
	fmt.Fprintln(w)
	for i := range rows {
		sep = ""
		for _, c := range cols {
			fmt.Fprintf(w, sep+c.verb, c.value(&rows[i]))
			if c.ci != nil && multiSeed {
				fmt.Fprintf(w, "\t"+c.verb, c.ci(&rows[i]))
			}
			sep = "\t"
		}
		fmt.Fprintln(w)
	}
}

// curve is one plotted series: its value at row i.
type curve func(i int) float64

// curveOf is a slice as a curve.
func curveOf(xs []float64) curve { return func(i int) float64 { return xs[i] } }

// binStart is the time axis of a binned trace: bin i starts at i·width.
func binStart(width float64) curve { return func(i int) float64 { return float64(i) * width } }

// kbps is a trace of bytes per bin of width seconds, in KB/s.
func kbps(bytes []float64, width float64) curve {
	return func(i int) float64 { return bytes[i] / 1000 / width }
}

// writeMatrix writes n rows of x(i) followed by each curve's value at
// i: the "x A B …" blocks gnuplot reads one series per column from.
func writeMatrix(w io.Writer, n int, xVerb string, x curve, verb string, curves ...curve) {
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, xVerb, x(i))
		for _, c := range curves {
			fmt.Fprintf(w, "\t"+verb, c(i))
		}
		fmt.Fprintln(w)
	}
}
