package simnet

import (
	"net/netip"
	"testing"
	"time"
)

// deliveryHarness wires one sender and one receiver on a fresh Sim with
// a fixed-latency link, returning a step function that sends one
// datagram and drains it. Used by both the allocation guard and the
// benchmark so they exercise the identical path.
func deliveryHarness(tb testing.TB, size int) func() {
	s := NewSim(time.Unix(0, 0))
	s.Latency = func(netip.AddrPort, netip.AddrPort, int) (time.Duration, bool) {
		return time.Millisecond, true
	}
	recv, err := s.Listen(netip.AddrPort{}, func([]byte, netip.AddrPort) {})
	if err != nil {
		tb.Fatal(err)
	}
	send, err := s.Listen(netip.AddrPort{}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	pkt := make([]byte, size)
	to := recv.LocalAddr()
	return func() {
		if err := send.Send(pkt, to); err != nil {
			tb.Fatal(err)
		}
		s.Run()
	}
}

// TestSimDeliverZeroAlloc guards the pooled delivery path: after the
// event pool is warm, scheduling and delivering a datagram must not
// allocate — deliverLocked recycles delivery events together with
// their packet copy buffers, so the per-packet copy reuses capacity
// instead of allocating a fresh buffer per datagram. Campaign workers
// push tens of millions of datagrams through this path per run.
func TestSimDeliverZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	step := deliveryHarness(t, 1000)
	// Warm the pool: the first delivery allocates the event and grows
	// its copy buffer to capacity.
	for i := 0; i < 64; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(512, step); allocs != 0 {
		t.Errorf("pooled datagram delivery: %.2f allocs/op, want 0", allocs)
	}
}

// BenchmarkSimDeliver measures the send-schedule-deliver cycle for one
// datagram; run with -benchmem to watch the allocs/op the guard above
// pins at zero.
func BenchmarkSimDeliver(b *testing.B) {
	step := deliveryHarness(b, 1000)
	step() // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
