// Package allow exercises the allow comments themselves: one without a
// reason or with an unknown analyzer is reported, whatever it follows.
package allow

func f() int {
	n := 0 //tfrclint:allow importboundary // want `allow importboundary gives no reason`
	n++    //tfrclint:allow import a near miss // want `names "import", which is not an analyzer`
	n--    //tfrclint:allow // want `names no analyzer`
	//tfrclint:allow detrand the next line reads no clock, so nothing is silenced
	return n
}
