package simnet

import (
	"errors"
	"net/netip"
	"testing"
	"time"
)

// TestSimWaitRunsOnTheCallersGoroutine: a blocking call waits on its
// transport. Wait executes events until the awaited one has closed done —
// no further — and reports an idle simulator instead of hanging on it.
func TestSimWaitRunsOnTheCallersGoroutine(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	done := make(chan struct{})
	later := 0
	s.AfterFunc(time.Second, func() { close(done) })
	s.AfterFunc(2*time.Second, func() { later++ })
	if !s.Wait(done) {
		t.Fatal("Wait = false with the closing timer pending")
	}
	if got := s.Now(); !got.Equal(time.Unix(1, 0)) {
		t.Errorf("clock after Wait = %v, want start+1s", got)
	}
	if later != 0 || s.PendingEvents() != 1 {
		t.Errorf("Wait ran past the event it waited for (later=%d, pending=%d)", later, s.PendingEvents())
	}
	if s.Wait(make(chan struct{})) {
		t.Error("Wait on a channel nothing can close = true")
	}
	if later != 1 || s.PendingEvents() != 0 {
		t.Errorf("idle Wait did not drain the queue (later=%d, pending=%d)", later, s.PendingEvents())
	}
	if !s.Wait(done) {
		t.Error("Wait on a closed channel = false")
	}
}

// TestSimWaitInsideHandlerPanics: a handler that blocks would run the
// events behind it before it returns; the simulator refuses.
func TestSimWaitInsideHandlerPanics(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var recovered any
	recv, err := s.Listen(netip.AddrPort{}, func([]byte, netip.AddrPort) {
		defer func() { recovered = recover() }()
		s.Wait(make(chan struct{}))
	})
	if err != nil {
		t.Fatal(err)
	}
	send, _ := s.Listen(netip.AddrPort{}, nil)
	if err := send.Send([]byte("x"), recv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if recovered == nil {
		t.Fatal("Wait inside a handler did not panic")
	}
}

// TestInboxOnTheTransportClock: an inbox read waits on the simulator and
// times out in virtual time; a full inbox drops; Close ends every read.
func TestInboxOnTheTransportClock(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	in := NewInbox[int](s, 2)
	if _, err := in.Get(3 * time.Second); !errors.Is(err, ErrDeadline) {
		t.Fatalf("empty Get(3s) = %v, want ErrDeadline", err)
	}
	if got := s.Now(); !got.Equal(time.Unix(3, 0)) {
		t.Errorf("deadline fired at %v, want start+3s", got)
	}
	s.AfterFunc(time.Second, func() { in.Put(1); in.Put(2); in.Put(3) })
	for want := 1; want <= 2; want++ {
		v, err := in.Get(0)
		if err != nil || v != want {
			t.Fatalf("Get = %d, %v; want %d", v, err, want)
		}
	}
	if got := s.Now(); !got.Equal(time.Unix(4, 0)) {
		t.Errorf("items arrived at %v, want start+4s", got)
	}
	if _, err := in.Get(0); !errors.Is(err, ErrIdle) {
		t.Fatalf("Get past a full inbox's drop = %v, want ErrIdle", err)
	}
	s.AfterFunc(time.Second, in.Close)
	if _, err := in.Get(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get across Close = %v, want ErrClosed", err)
	}
}

// TestAwaitOnUDPNet: on real sockets and timers the same blocking helpers
// simply block until a timer goroutine answers.
func TestAwaitOnUDPNet(t *testing.T) {
	n := NewUDPNet()
	defer n.Close()
	if err := Await(n, func(done func()) { n.AfterFunc(5*time.Millisecond, done) }); err != nil {
		t.Fatal(err)
	}
	in := NewInbox[int](n, 1)
	if _, err := in.Get(5 * time.Millisecond); !errors.Is(err, ErrDeadline) {
		t.Fatalf("empty Get = %v, want ErrDeadline", err)
	}
	n.AfterFunc(time.Millisecond, func() { in.Put(7) })
	if v, err := in.Get(0); err != nil || v != 7 {
		t.Fatalf("Get = %d, %v; want 7", v, err)
	}
}
