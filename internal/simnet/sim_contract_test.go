package simnet

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// broadcastCampaign runs one seeded broadcast campaign on a fresh Sim
// and returns the full event order as one string: every delivery is
// recorded as "to<-from@time:payload" in execution order.
func broadcastCampaign(t *testing.T, seed int64) string {
	t.Helper()
	s := NewSim(time.Unix(0, 0))
	rng := rand.New(rand.NewSource(seed))
	s.Latency = func(from, to netip.AddrPort, size int) (time.Duration, bool) {
		// Deterministic pseudo-random per-packet jitter: the delay stream
		// depends only on the seed and the (sorted) scheduling order.
		return time.Duration(rng.Intn(20)) * time.Millisecond, true
	}

	var log bytes.Buffer
	const port = 68
	// Deliberately many listeners on the broadcast port so unsorted map
	// iteration would almost surely produce a different event order.
	for i := 0; i < 32; i++ {
		addr := netip.AddrPortFrom(s.AllocAddr(), port)
		a := addr
		if _, err := s.Listen(addr, func(pkt []byte, from netip.AddrPort) {
			fmt.Fprintf(&log, "%v<-%v@%v:%s\n", a, from, s.Now().UnixNano(), pkt)
		}); err != nil {
			t.Fatal(err)
		}
	}
	send, err := s.Listen(netip.AddrPortFrom(s.AllocAddr(), port), nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		msg := []byte(fmt.Sprintf("r%d", round))
		if err := send.Send(msg, netip.AddrPortFrom(BroadcastAddr, port)); err != nil {
			t.Fatal(err)
		}
		s.Run()
	}
	return log.String()
}

// TestBroadcastDeterministic verifies that two identically-seeded
// broadcast campaigns produce byte-identical event orders — broadcast
// fan-out is sorted by destination, so map iteration order never leaks
// into the schedule. Run 10x to catch rare orderings.
func TestBroadcastDeterministic(t *testing.T) {
	for i := 0; i < 10; i++ {
		seed := int64(i * 7)
		a := broadcastCampaign(t, seed)
		b := broadcastCampaign(t, seed)
		if a != b {
			t.Fatalf("run %d: event orders differ:\n--- first ---\n%s--- second ---\n%s", i, a, b)
		}
		if a == "" {
			t.Fatal("campaign recorded no events")
		}
	}
}

// TestEphemeralPortWrap verifies the auto-assign scan wraps from 65535
// back into the ephemeral range instead of spilling into port 0 and the
// reserved low ports.
func TestEphemeralPortWrap(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	addr := s.AllocAddr()
	s.mu.Lock()
	s.nextPort[addr] = ephemeralHi - 1
	s.mu.Unlock()

	c1, err := s.Listen(netip.AddrPortFrom(addr, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c1.LocalAddr().Port(); got != ephemeralHi {
		t.Fatalf("port = %d, want %d", got, ephemeralHi)
	}
	c2, err := s.Listen(netip.AddrPortFrom(addr, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.LocalAddr().Port(); got != ephemeralLo+1 {
		t.Fatalf("wrapped port = %d, want %d", got, ephemeralLo+1)
	}
	if got := c2.LocalAddr().Port(); got == 0 {
		t.Fatal("scan spilled into port 0")
	}
}

// TestEphemeralPortExhaustion binds the entire ephemeral range and
// verifies the next auto-assign fails with ErrAddrInUse instead of
// spinning forever or handing out a reserved port.
func TestEphemeralPortExhaustion(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	addr := s.AllocAddr()
	for p := ephemeralLo + 1; p <= ephemeralHi; p++ {
		if _, err := s.Listen(netip.AddrPortFrom(addr, uint16(p)), nil); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Listen(netip.AddrPortFrom(addr, 0), nil)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrAddrInUse) {
			t.Fatalf("err = %v, want ErrAddrInUse", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("port scan did not terminate (infinite spin)")
	}
}

// TestCloseBeforeDeliveryCountsDropped verifies that a datagram whose
// destination closed between send and delivery is counted as dropped,
// so Stats() conserves datagrams (delivered + dropped == sent).
func TestCloseBeforeDeliveryCountsDropped(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	s.Latency = func(_, _ netip.AddrPort, _ int) (time.Duration, bool) {
		return 10 * time.Millisecond, true
	}
	var got int
	recv, err := s.Listen(netip.AddrPort{}, func([]byte, netip.AddrPort) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	send, err := s.Listen(netip.AddrPort{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// First datagram delivered normally, second in flight when the
	// receiver closes.
	if err := send.Send([]byte("a"), recv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if err := send.Send([]byte("b"), recv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := recv.Close(); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got != 1 {
		t.Fatalf("handler ran %d times, want 1", got)
	}
	delivered, dropped := s.Stats()
	if delivered != 1 || dropped != 1 {
		t.Fatalf("stats = %d delivered / %d dropped, want 1/1 (conservation)", delivered, dropped)
	}
}

// TestSendCopiesBuffer verifies the sender keeps ownership: mutating or
// reusing the buffer right after Send returns must not affect what the
// receiver sees.
func TestSendCopiesBuffer(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var got []string
	recv, _ := s.Listen(netip.AddrPort{}, func(pkt []byte, _ netip.AddrPort) {
		got = append(got, string(pkt))
	})
	send, _ := s.Listen(netip.AddrPort{}, nil)
	buf := []byte("first")
	if err := send.Send(buf, recv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXX") // reuse immediately — contract says this is fine
	if err := send.Send(buf[:3], recv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(got) != 2 || got[0] != "first" || got[1] != "XXX" {
		t.Fatalf("got %q", got)
	}
}

// TestBroadcastReceiversGetPrivateCopies verifies each broadcast
// receiver may mutate its datagram in place without affecting the other
// receivers (no shared buffer across the fan-out).
func TestBroadcastReceiversGetPrivateCopies(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	const port = 68
	var got []string
	for i := 0; i < 4; i++ {
		i := i
		if _, err := s.Listen(netip.AddrPortFrom(s.AllocAddr(), port), func(pkt []byte, _ netip.AddrPort) {
			pkt[0] = byte('0' + i) // mutate in place — allowed by contract
			got = append(got, string(pkt))
		}); err != nil {
			t.Fatal(err)
		}
	}
	send, _ := s.Listen(netip.AddrPortFrom(s.AllocAddr(), port), nil)
	if err := send.Send([]byte("_bcast"), netip.AddrPortFrom(BroadcastAddr, port)); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(got) != 4 {
		t.Fatalf("got %d deliveries, want 4", len(got))
	}
	for i, g := range got {
		want := fmt.Sprintf("%dbcast", i)
		if g != want {
			t.Errorf("receiver %d saw %q, want %q (shared buffer?)", i, g, want)
		}
	}
}

// TestHandlerMayForwardWithoutCopy verifies the router idiom: a handler
// may mutate its borrowed datagram in place and Send it onward within
// the call — the simulator's copy-on-scheduling makes this safe even
// though the buffer is recycled after the handler returns.
func TestHandlerMayForwardWithoutCopy(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var final string
	sink, _ := s.Listen(netip.AddrPort{}, func(pkt []byte, _ netip.AddrPort) {
		final = string(pkt)
	})
	var hop Conn
	hop, _ = s.Listen(netip.AddrPort{}, func(pkt []byte, _ netip.AddrPort) {
		pkt[0] = '*' // in-place rewrite, then forward the same slice
		_ = hop.Send(pkt, sink.LocalAddr())
	})
	src, _ := s.Listen(netip.AddrPort{}, nil)
	if err := src.Send([]byte("x-data"), hop.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if final != "*-data" {
		t.Fatalf("sink saw %q, want %q", final, "*-data")
	}
}

// TestConcurrentSendCloseListen is the -race stress test for the new
// buffer-ownership and pooling rules: many goroutines listen, send,
// mutate received buffers, and close conns while one driver goroutine
// steps deliveries (any goroutine may send; one drives).
func TestConcurrentSendCloseListen(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	stop := make(chan struct{})
	var runDone sync.WaitGroup
	runDone.Add(1)
	go func() {
		defer runDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !s.Step() {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	var received atomic.Uint64
	sink, err := s.Listen(netip.AddrPort{}, func(pkt []byte, _ netip.AddrPort) {
		if len(pkt) > 0 {
			pkt[0] ^= 0xff // exercise in-place mutation under race detector
		}
		received.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const rounds = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < rounds; i++ {
				c, err := s.Listen(netip.AddrPort{}, func(pkt []byte, _ netip.AddrPort) {})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				buf[0] = byte(w)
				if err := c.Send(buf, sink.LocalAddr()); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				// Reuse buf immediately: Send must have copied.
				buf[0] = 0xee
				if err := c.Close(); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Drain what is still in flight, then stop the live loop.
	deadline := time.Now().Add(10 * time.Second)
	for received.Load() < workers*rounds && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	runDone.Wait()
	delivered, dropped := s.Stats()
	if delivered+dropped != workers*rounds {
		t.Fatalf("conservation violated: delivered %d + dropped %d != sent %d",
			delivered, dropped, workers*rounds)
	}
}

// TestConcurrentSendClose is the sender-side companion stress test: for
// each conn one goroutine hammers Send/SendBatch while another closes
// the conn mid-stream. Under -race this pins the fix for the
// check-closed-then-schedule window (closed-ness now lives under the
// scheduling lock); the assertions pin its determinism — every send
// either fully succeeds before the close or fails with ErrClosed, and
// once Close has returned no later send can slip a datagram out.
func TestConcurrentSendClose(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	sink, err := s.Listen(netip.AddrPort{}, func([]byte, netip.AddrPort) {})
	if err != nil {
		t.Fatal(err)
	}
	to := sink.LocalAddr()

	const conns = 16
	var sent atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		c, err := s.Listen(netip.AddrPort{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			buf := []byte("payload")
			batch := [][]byte{[]byte("b0"), []byte("b1")}
			dests := []netip.AddrPort{to, to}
			for n := 0; ; n++ {
				var err error
				var k uint64 = 1
				if n%2 == 0 {
					err = c.Send(buf, to)
				} else {
					err = c.SendBatch(batch, dests)
					k = 2
				}
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("send failed with %v, want ErrClosed", err)
					}
					return
				}
				sent.Add(k)
				if n == 0 {
					close(closed) // let the closer go once traffic flows
				}
			}
		}()
		go func() {
			defer wg.Done()
			<-closed
			if err := c.Close(); err != nil {
				t.Errorf("close: %v", err)
				return
			}
			// Deterministic post-condition: Close has returned, so any
			// further send must fail — no race, no lost window.
			if err := c.Send([]byte("late"), to); !errors.Is(err, ErrClosed) {
				t.Errorf("Send after Close = %v, want ErrClosed", err)
			}
		}()
	}
	wg.Wait()
	s.Run()
	delivered, dropped := s.Stats()
	if delivered+dropped != sent.Load() {
		t.Fatalf("conservation violated: delivered %d + dropped %d != sent %d",
			delivered, dropped, sent.Load())
	}
}
