package simnet

import (
	"net/netip"
	"sync"
	"testing"
	"time"
)

func TestSimDeliveryOrderAndClock(t *testing.T) {
	start := time.Unix(0, 0)
	s := NewSim(start)
	s.Latency = func(from, to netip.AddrPort, size int) (time.Duration, bool) {
		return 10 * time.Millisecond, true
	}

	var got []string
	var gotTimes []time.Time
	recv, err := s.Listen(netip.AddrPort{}, func(pkt []byte, from netip.AddrPort) {
		got = append(got, string(pkt))
		gotTimes = append(gotTimes, s.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	send, err := s.Listen(netip.AddrPort{}, func([]byte, netip.AddrPort) {})
	if err != nil {
		t.Fatal(err)
	}

	if err := send.Send([]byte("a"), recv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := send.Send([]byte("b"), recv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v", got)
	}
	// Both delivered at t+10ms on the virtual clock.
	if !gotTimes[0].Equal(start.Add(10 * time.Millisecond)) {
		t.Errorf("delivery time = %v", gotTimes[0])
	}
	delivered, dropped := s.Stats()
	if delivered != 2 || dropped != 0 {
		t.Errorf("stats = %d/%d", delivered, dropped)
	}
}

func TestSimLoss(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	s.Latency = func(from, to netip.AddrPort, size int) (time.Duration, bool) {
		return 0, false // drop everything
	}
	var n int
	recv, _ := s.Listen(netip.AddrPort{}, func([]byte, netip.AddrPort) { n++ })
	send, _ := s.Listen(netip.AddrPort{}, nil)
	_ = send.Send([]byte("x"), recv.LocalAddr())
	s.Run()
	if n != 0 {
		t.Error("dropped packet delivered")
	}
	if _, dropped := s.Stats(); dropped != 1 {
		t.Errorf("dropped = %d", dropped)
	}
}

func TestSimTimers(t *testing.T) {
	s := NewSim(time.Unix(100, 0))
	var fired []int
	s.AfterFunc(3*time.Second, func() { fired = append(fired, 3) })
	s.AfterFunc(1*time.Second, func() { fired = append(fired, 1) })
	cancel := s.AfterFunc(2*time.Second, func() { fired = append(fired, 2) })
	cancel()
	s.RunFor(5 * time.Second)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired = %v", fired)
	}
	if got := s.Now(); !got.Equal(time.Unix(105, 0)) {
		t.Errorf("clock = %v", got)
	}
}

func TestSimRunUntilStopsAtDeadline(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var fired bool
	s.AfterFunc(10*time.Second, func() { fired = true })
	s.RunFor(5 * time.Second)
	if fired {
		t.Error("future event fired early")
	}
	s.RunFor(5 * time.Second)
	if !fired {
		t.Error("event did not fire at its time")
	}
}

func TestSimNestedSends(t *testing.T) {
	// A handler that replies: request/response over the simulator.
	s := NewSim(time.Unix(0, 0))
	s.Latency = func(_, _ netip.AddrPort, _ int) (time.Duration, bool) {
		return 25 * time.Millisecond, true
	}
	var serverConn, clientConn Conn
	var rttMS float64
	serverConn, _ = s.Listen(netip.AddrPort{}, func(pkt []byte, from netip.AddrPort) {
		_ = serverConn.Send(append([]byte("re:"), pkt...), from)
	})
	t0 := s.Now()
	clientConn, _ = s.Listen(netip.AddrPort{}, func(pkt []byte, from netip.AddrPort) {
		if string(pkt) != "re:ping" {
			t.Errorf("reply = %q", pkt)
		}
		rttMS = float64(s.Now().Sub(t0)) / float64(time.Millisecond)
	})
	_ = clientConn.Send([]byte("ping"), serverConn.LocalAddr())
	s.Run()
	if rttMS != 50 {
		t.Errorf("rtt = %v ms, want 50", rttMS)
	}
}

func TestSimAddressing(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	a := s.AllocAddr()
	b := s.AllocAddr()
	if a == b {
		t.Error("allocated addresses collide")
	}
	c1, err := s.Listen(netip.AddrPortFrom(a, 30100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Listen(netip.AddrPortFrom(a, 30100), nil); err == nil {
		t.Error("double bind accepted")
	}
	// Auto port on same address.
	c2, err := s.Listen(netip.AddrPortFrom(a, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c2.LocalAddr().Port() == 0 || c2.LocalAddr() == c1.LocalAddr() {
		t.Errorf("auto port = %v", c2.LocalAddr())
	}
	// Close frees the address.
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err == nil {
		t.Error("double close accepted")
	}
	if _, err := s.Listen(netip.AddrPortFrom(a, 30100), nil); err != nil {
		t.Errorf("rebind after close: %v", err)
	}
	if err := c1.Send([]byte("x"), c2.LocalAddr()); err == nil {
		t.Error("send on closed conn accepted")
	}
}

func TestUDPNetRoundTrip(t *testing.T) {
	n := NewUDPNet()
	defer n.Close()

	var mu sync.Mutex
	recvd := make(chan string, 1)
	// The handler runs on the read-loop goroutine, which starts inside
	// Listen — guard the conn variable it captures.
	var srvMu sync.Mutex
	var server Conn
	conn, err := n.Listen(netip.AddrPort{}, func(pkt []byte, from netip.AddrPort) {
		srvMu.Lock()
		sc := server
		srvMu.Unlock()
		if sc != nil {
			_ = sc.Send(append([]byte("re:"), pkt...), from)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	srvMu.Lock()
	server = conn
	srvMu.Unlock()
	client, err := n.Listen(netip.AddrPort{}, func(pkt []byte, from netip.AddrPort) {
		mu.Lock()
		defer mu.Unlock()
		select {
		case recvd <- string(pkt):
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Send([]byte("hello"), server.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-recvd:
		if got != "re:hello" {
			t.Errorf("got %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout waiting for reply")
	}
}

func TestUDPNetTimer(t *testing.T) {
	n := NewUDPNet()
	defer n.Close()
	ch := make(chan struct{})
	n.AfterFunc(10*time.Millisecond, func() { close(ch) })
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("timer did not fire")
	}
	cancel := n.AfterFunc(time.Hour, func() { t.Error("cancelled timer fired") })
	cancel()
	if now := n.Now(); now.IsZero() {
		t.Error("Now is zero")
	}
}

func TestUDPNetPreferredPort(t *testing.T) {
	n := NewUDPNet()
	defer n.Close()
	c, err := n.Listen(netip.MustParseAddrPort("127.0.0.1:0"), func([]byte, netip.AddrPort) {})
	if err != nil {
		t.Fatal(err)
	}
	got := c.LocalAddr()
	if got.Port() == 0 || !got.Addr().IsLoopback() {
		t.Errorf("local addr = %v", got)
	}
}

// fixedWire delays by a constant and counts what it decided.
type fixedWire struct {
	d     time.Duration
	calls int
}

func (w *fixedWire) Delay(int, int64) (time.Duration, bool) { w.calls++; return w.d, true }

// TestBindWireDecidesPeerSends: a bound conn's sends to its peer take
// the wire's delay, and every other send — to another destination, or
// from the peer back — takes Latency. Now keeps the start's location.
func TestBindWireDecidesPeerSends(t *testing.T) {
	start := time.Date(2024, 1, 25, 12, 0, 0, 0, time.FixedZone("X", 3600))
	s := NewSim(start)
	s.Latency = func(netip.AddrPort, netip.AddrPort, int) (time.Duration, bool) {
		return time.Millisecond, true
	}
	at := map[string]time.Time{}
	mk := func(name string) Conn {
		c, err := s.Listen(netip.AddrPort{}, func(pkt []byte, _ netip.AddrPort) { at[name+string(pkt)] = s.Now() })
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b, c := mk("a"), mk("b"), mk("c")
	w := &fixedWire{d: 7 * time.Millisecond}
	if err := s.BindWire(a.LocalAddr(), b.LocalAddr(), w); err != nil {
		t.Fatal(err)
	}
	if err := s.BindWire(netip.MustParseAddrPort("10.9.9.9:1"), b.LocalAddr(), w); err == nil {
		t.Error("BindWire on an address nothing listens at succeeded")
	}
	_ = a.SendBatch([][]byte{{1}, {2}}, []netip.AddrPort{b.LocalAddr(), b.LocalAddr()})
	_ = a.Send([]byte{3}, c.LocalAddr())
	_ = b.Send([]byte{4}, a.LocalAddr())
	s.Run()
	for key, want := range map[string]time.Duration{
		"b\x01": 7 * time.Millisecond, "b\x02": 7 * time.Millisecond,
		"c\x03": time.Millisecond, "a\x04": time.Millisecond,
	} {
		if got := at[key]; got != start.Add(want) {
			t.Errorf("%q delivered at %v, want %v", key, got, start.Add(want))
		}
	}
	if w.calls != 2 {
		t.Errorf("wire decided %d datagrams, want 2", w.calls)
	}
}
