package main

func Example() {
	main()
	// Output:
	// 3-bottleneck parking lot, middle hop squeezed to 50% in [25s, 45s)
	//
	// through TFRC:   50.4 KB/s   (crosses all 3 bottlenecks)
	// through TCP:    49.3 KB/s
	// drop rates:   hop0 0.0038, hop1 0.0049
	// bins (0.5s): 80 per flow at the first bottleneck
	//
	// (the through flows compete at every hop, so they get less than the
	//  per-hop fair share — and TFRC degrades the same way TCP does)
}
