package main

func Example() {
	main()
	// Output:
	// RTT-heterogeneous dumbbell: 3 TFRC + 3 TCP + mice background, RED
	//
	// flow   proto  baseRTT   throughput
	//    0   TFRC      30 ms    311.4 KB/s
	//    1   TCP      130 ms    142.6 KB/s
	//    2   TFRC     230 ms     61.7 KB/s
	//    3   TCP      330 ms     39.4 KB/s
	//    4   TFRC     430 ms     36.0 KB/s
	//    5   TCP      530 ms     31.4 KB/s
	//
	// bottleneck: util 0.99, drop rate 0.0104
	//
	// (both protocols slope down with RTT — TFRC mirrors TCP's bias
	//  rather than overrunning the long-RTT flows)
}
