package main

func Example() {
	main()
	// Output:
	// receiver: at least 3 data packets
	// sender: at least 1 feedback report processed
}
