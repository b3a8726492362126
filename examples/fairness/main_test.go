package main

func Example() {
	main()
	// Output:
	// n TCP + n TFRC flows on one bottleneck; normTCP = 1.0 means fair
	//
	// queue     link     flows   normTCP  normTFRC  util   drops
	// DropTail    2 Mb/s     2     0.77     1.23   1.00   0.0097
	// DropTail    2 Mb/s     8     0.58     1.42   1.00   0.0574
	// DropTail    2 Mb/s    16     0.74     1.26   1.00   0.1074
	// DropTail    8 Mb/s     2     1.09     0.88   0.99   0.0069
	// DropTail    8 Mb/s     8     0.95     1.05   1.00   0.0159
	// DropTail    8 Mb/s    16     0.93     1.07   1.00   0.0290
	// RED         2 Mb/s     2     0.96     1.02   0.99   0.0147
	// RED         2 Mb/s     8     0.99     1.01   1.00   0.0621
	// RED         2 Mb/s    16     1.04     0.96   1.00   0.1117
	// RED         8 Mb/s     2     1.02     0.93   0.97   0.0073
	// RED         8 Mb/s     8     0.97     1.03   1.00   0.0187
	// RED         8 Mb/s    16     0.96     1.04   1.00   0.0370
	//
	// (paper Figure 6: values near 1.0 across the grid; TCP dips only
	//  where its fair-share window is very small)
}
