package main

func Example() {
	main()
	// Output:
	// ccfair: TFRC vs Vegas vs Relentless, 2-bottleneck parking lot, DropTail
	//
	// tfrc          132.5 KB/s  (18.5% of delivered bytes)
	// vegas          74.7 KB/s  (10.4% of delivered bytes)
	// relentless    510.3 KB/s  (71.1% of delivered bytes)
	//
	// drop rate 0.0212, mean queue 37.2 packets
	//
	// (Relentless never halves, so it keeps the queue full and the loss
	//  rate up; TFRC absorbs that as a high steady loss-event rate, and
	//  Vegas — which backs off as soon as the queue adds delay — starves.)
}
