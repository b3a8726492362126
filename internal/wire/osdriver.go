package wire

import (
	"net"
	"sync"
	"time"
)

// The OS driver: an endpoint on a net.PacketConn and the wall clock. It is
// the one file of the package that may read the wall clock; everything
// else is held to the simulator's no-wall-clock rule by tfrclint.

// NewSender creates a sender streaming to dst over conn. src may be nil
// (zero padding).
func NewSender(conn net.PacketConn, dst net.Addr, src Source, cfg Config) *Sender {
	s := newSender(src, cfg)
	s.os = &osLoop{conn: conn, peer: dst, done: make(chan struct{})}
	s.attach(osClock{&s.mu}, s.os.write)
	return s
}

// NewReceiver creates a receiver on conn. Reports go back to wherever
// the latest data packet came from.
func NewReceiver(conn net.PacketConn, cfg Config) *Receiver {
	r := newReceiver(cfg)
	r.os = &osLoop{conn: conn, learnPeer: true, done: make(chan struct{})}
	r.attach(osClock{&r.mu}, r.os.write)
	return r
}

// osLoop is one endpoint's socket: the read loop that turns arrivals into
// turns of the state machine, and the write side of the datagram seam.
type osLoop struct {
	conn      net.PacketConn
	peer      net.Addr // guarded by the endpoint's mutex
	learnPeer bool     // peer follows the source of arriving data packets
	done      chan struct{}
	once      sync.Once
}

// write sends one frame to the peer; the endpoint's mutex is held. A
// failed write is a lost datagram, which the protocol already handles.
func (l *osLoop) write(b []byte) {
	if l.peer != nil {
		_, _ = l.conn.WriteTo(b, l.peer)
	}
}

// serve reads datagrams and hands each to the endpoint under mu, until
// stop is called or the connection fails with something other than a
// timeout.
func (l *osLoop) serve(mu *sync.Mutex, onDatagram func([]byte)) {
	buf := make([]byte, 65536)
	for {
		select {
		case <-l.done:
			return
		default:
		}
		// The deadline bounds how long a stop that slips in between the
		// check above and the read below goes unnoticed.
		l.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond)) //tfrclint:allow detrand socket deadlines are wall-clock by definition
		n, from, err := l.conn.ReadFrom(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
		mu.Lock()
		if l.learnPeer && IsData(buf[:n]) {
			l.peer = from
		}
		onDatagram(buf[:n])
		mu.Unlock()
	}
}

// stop ends serve; a read in progress is abandoned via an immediate
// deadline.
func (l *osLoop) stop() {
	l.once.Do(func() {
		close(l.done)
		l.conn.SetReadDeadline(time.Now()) //tfrclint:allow detrand socket deadlines are wall-clock by definition
	})
}

// osClock is the wall clock. Its timers run their callback under the
// endpoint's mutex, which is what makes an expiry one turn of the state
// machine.
type osClock struct{ mu *sync.Mutex }

func (c osClock) Now() time.Time {
	return time.Now() //tfrclint:allow detrand the OS driver's clock is the wall clock
}

func (c osClock) NewTimer(f func()) Timer { return &osTimer{mu: c.mu, f: f} }

// osTimer is a one-shot timer over time.AfterFunc. Reset and Stop are
// called with mu held; gen lets an expiry that lost the race for mu to a
// Reset or Stop see that it is stale.
type osTimer struct {
	mu  *sync.Mutex
	f   func()
	t   *time.Timer
	gen uint64
}

func (t *osTimer) Reset(d time.Duration) {
	t.Stop()
	gen := t.gen
	t.t = time.AfterFunc(d, func() { //tfrclint:allow detrand the OS driver's timers are wall-clock timers
		t.mu.Lock()
		defer t.mu.Unlock()
		if t.gen == gen {
			t.f()
		}
	})
}

func (t *osTimer) Stop() {
	t.gen++
	if t.t != nil {
		t.t.Stop()
	}
}
