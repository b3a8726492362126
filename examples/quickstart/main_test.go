package main

func Example() {
	main()
	// Output:
	// time    rate         eq. 1        rtt       p        sent/received
	//  0.5s     90.6 kB/s        -         44.1 ms  0.00000  12/10
	//  1.0s    520.8 kB/s        -         78.6 ms  0.00000  166/114
	//  1.5s     87.4 kB/s     87.4 kB/s   160.2 ms  0.00679  324/239
	//  2.0s     53.3 kB/s     53.3 kB/s   186.5 ms  0.01228  355/322
	//  2.5s     67.3 kB/s     68.2 kB/s   147.9 ms  0.01200  409/376
	//  3.0s     99.1 kB/s     99.6 kB/s   112.2 ms  0.01009  472/439
	//  3.5s    137.0 kB/s    139.6 kB/s    88.8 ms  0.00843  551/517
	//  4.0s    204.2 kB/s    208.1 kB/s    67.9 ms  0.00669  656/620
	//  4.5s    272.2 kB/s    272.5 kB/s    59.0 ms  0.00528  785/744
	//  5.0s    266.5 kB/s    266.5 kB/s    64.2 ms  0.00471  914/869
	//
	// done: 914 data packets sent, 869 delivered (95.1%), 64 feedback reports (64 processed)
}
