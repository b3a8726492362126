// Package allow exercises the allow comments themselves: one without a
// reason or with an unknown analyzer is reported, whatever it follows.
package allow

func f() int {
	n := 0 //tfrclint:allow hotpathalloc // want `allow hotpathalloc gives no reason`
	n++    //tfrclint:allow hotpath a near miss // want `names "hotpath", which is not an analyzer`
	n--    //tfrclint:allow // want `names no analyzer`
	//tfrclint:allow detrand the next line reads no clock, so nothing is silenced
	return n
}
