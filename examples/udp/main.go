// UDP: the same TFRC wire endpoints on two loopback UDP sockets and the
// wall clock, the path they take outside the simulator. The sender
// streams application-limited datagrams, the receiver reports back once
// per RTT, and the program stops as soon as both directions have carried
// traffic. Timing varies from run to run, so it prints only that the
// exchange happened.
//
//	go run ./examples/udp
package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"tfrc"
)

func main() {
	rconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer rconn.Close()
	sconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer sconn.Close()

	cfg := tfrc.WireConfig{PacketSize: 400, MaxRate: 200e3}
	recv := tfrc.NewWireReceiver(rconn, cfg)
	send := tfrc.NewWireSender(sconn, rconn.LocalAddr(), nil, cfg)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); recv.Run() }()
	go func() { defer wg.Done(); send.Run() }()

	deadline := time.Now().Add(10 * time.Second)
	exchanged := func() bool { return recv.Stats().Received >= 3 && send.Stats().Feedbacks >= 1 }
	for !exchanged() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	send.Stop()
	recv.Stop()
	wg.Wait()
	if !exchanged() {
		fmt.Fprintf(os.Stderr, "udp: no exchange within 10 s: %+v %+v\n", send.Stats(), recv.Stats())
		os.Exit(1)
	}
	fmt.Println("receiver: at least 3 data packets")
	fmt.Println("sender: at least 1 feedback report processed")
}
