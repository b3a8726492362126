package main

func Example() {
	main()
	// Output:
	// time   tfrc-rate   tier   (encoder follows the smooth rate)
	//  0.5s     75.8 kB/s  T0 █
	//  1.0s    758.2 kB/s  T3 ████
	//  1.5s     75.8 kB/s  T0 █
	//  2.0s     76.2 kB/s  T0 █
	//  2.5s    109.6 kB/s  T0 █
	//  3.0s    147.7 kB/s  T1 ██
	//  3.5s    203.2 kB/s  T1 ██
	//  4.0s    266.8 kB/s  T2 ███
	// --- congestion begins: capacity cut to 600 kb/s ---
	//  4.5s    105.2 kB/s  T0 █
	//  5.0s     55.1 kB/s  T0 █
	//  5.5s     57.3 kB/s  T0 █
	//  6.0s     62.7 kB/s  T0 █
	//  6.5s     71.6 kB/s  T0 █
	//  7.0s     72.8 kB/s  T0 █
	//  7.5s     74.7 kB/s  T0 █
	//  8.0s     76.1 kB/s  T0 █
	// --- congestion clears ---
	//  8.5s     89.3 kB/s  T0 █
	//  9.0s    116.8 kB/s  T0 █
	//  9.5s    149.5 kB/s  T1 ██
	// 10.0s    198.1 kB/s  T1 ██
	// 10.5s    262.1 kB/s  T2 ███
	// 11.0s    320.4 kB/s  T2 ███
	// 11.5s    361.1 kB/s  T2 ███
	// 12.0s    388.2 kB/s  T3 ████
	//
	// frames delivered per tier:
	//   T0 (50 kB/s): 823 packets
	//   T1 (100 kB/s): 475 packets
	//   T2 (200 kB/s): 589 packets
	//   T3 (300 kB/s): 174 packets
}
