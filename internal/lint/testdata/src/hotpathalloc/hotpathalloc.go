// Package hotpathalloc exercises the hotpathalloc analyzer: allocation
// patterns inside //tfrc:hotpath functions are flagged; unmarked
// functions and pointer-shaped values are not.
package hotpathalloc

import "fmt"

type sched struct{}

func (s *sched) After(d float64, fn func()) {}

func (s *sched) AfterArg(d float64, fn func(any), arg any) {}

type agent struct {
	s   *sched
	buf []int
	n   int
}

func fire(x any) { x.(*agent).n++ }

//tfrc:hotpath
func (a *agent) badClosure(d float64) {
	a.s.After(d, func() { a.n++ }) // want `function literal allocates a closure`
}

//tfrc:hotpath
func (a *agent) goodPrebuilt(d float64) {
	a.s.AfterArg(d, fire, a) // shared top-level callback, pointer arg: no alloc
}

//tfrc:hotpath
func (a *agent) badFmt() {
	fmt.Printf("n=%d\n", a.n) // want `fmt\.Printf allocates`
}

//tfrc:hotpath
func (a *agent) panicFmtOK() {
	if a.n < 0 {
		panic(fmt.Sprintf("negative count %d", a.n)) // cold path: exempt
	}
}

//tfrc:hotpath
func (a *agent) badAppend(v int) {
	a.buf = append(a.buf, v) // want `append may grow the backing array`
}

//tfrc:hotpath
func (a *agent) allowedSlabGrowth(v int) {
	a.buf = append(a.buf, v) //tfrclint:allow hotpathalloc amortized slab growth
}

// A trailing allow silences its own line only.
//
//tfrc:hotpath
func (a *agent) trailingAllowIsOneLine(v int) {
	a.buf = append(a.buf, v) //tfrclint:allow hotpathalloc amortized slab growth
	a.buf = append(a.buf, v) // want `append may grow the backing array`
}

// An allow alone on its line silences the next line only.
//
//tfrc:hotpath
func (a *agent) allowAloneIsNextLine(v int) {
	//tfrclint:allow hotpathalloc amortized slab growth
	a.buf = append(a.buf, v)
	a.buf = append(a.buf, v) // want `append may grow the backing array`
}

//tfrc:hotpath
func (a *agent) badMake() {
	a.buf = make([]int, 16) // want `make allocates`
}

//tfrc:hotpath
func (a *agent) badBoxing(d float64) {
	a.s.AfterArg(d, fire, a.n) // want `interface argument boxes non-pointer int`
}

//tfrc:hotpath
func (a *agent) badMethodValue(d float64) {
	fn := a.methodCallee // want `method value methodCallee allocates a bound closure`
	_ = fn
}

func (a *agent) methodCallee() {}

//tfrc:hotpath
func (a *agent) methodCallOK() {
	a.methodCallee() // calling a method is not a method value
}

//tfrc:hotpath
func (a *agent) badDefer() {
	defer a.methodCallee() // want `defer in the per-event path`
}

//tfrc:hotpath
func (a *agent) badCompositePtr() *agent {
	return &agent{} // want `&composite literal escapes to the heap`
}

//tfrc:hotpath
func (a *agent) badStringConcat(s, t string) string {
	return s + t // want `string concatenation allocates`
}

//tfrc:hotpath
func (a *agent) badStringConv(b []byte) string {
	return string(b) // want `string<->\[\]byte conversion copies`
}

// Unmarked functions are out of scope however allocation-happy.
func coldPath(s *sched) {
	s.After(1, func() { fmt.Println("cold") })
	_ = make([]int, 1024)
}
