package simnet

import (
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"time"
)

// TestSendBatchDeliversCoalesced verifies the batch contract end to end:
// a SendBatch burst to a batch-bound receiver arrives as one handler
// call, in send order, with every buffer copied (the sender may reuse
// its buffers immediately).
func TestSendBatchDeliversCoalesced(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var calls int
	var got []string
	recv, err := s.ListenBatch(netip.AddrPort{}, func(pkts [][]byte, from []netip.AddrPort) {
		calls++
		if len(pkts) != len(from) {
			t.Errorf("batch slices disagree: %d pkts, %d froms", len(pkts), len(from))
		}
		for _, p := range pkts {
			got = append(got, string(p))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	send, err := s.Listen(netip.AddrPort{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bufs := [][]byte{[]byte("p0"), []byte("p1"), []byte("p2")}
	dests := []netip.AddrPort{recv.LocalAddr(), recv.LocalAddr(), recv.LocalAddr()}
	if err := send.SendBatch(bufs, dests); err != nil {
		t.Fatal(err)
	}
	for _, b := range bufs {
		copy(b, "XX") // reuse immediately — SendBatch must have copied
	}
	s.Run()
	if calls != 1 {
		t.Fatalf("handler calls = %d, want 1 (burst should coalesce)", calls)
	}
	if want := []string{"p0", "p1", "p2"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	if delivered, _ := s.Stats(); delivered != 3 {
		t.Fatalf("delivered = %d, want 3", delivered)
	}
	if s.InFlight() != 0 {
		t.Fatalf("inflight = %d, want 0", s.InFlight())
	}
}

// TestSendBatchPairwiseDests verifies pkts[i] goes to dests[i]: one
// burst may spray across destinations, and a mismatched pair of slices
// is rejected before anything is scheduled.
func TestSendBatchPairwiseDests(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	logs := make(map[string][]string)
	mk := func(name string) Conn {
		c, err := s.Listen(netip.AddrPort{}, func(pkt []byte, _ netip.AddrPort) {
			logs[name] = append(logs[name], string(pkt))
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk("a"), mk("b")
	send, _ := s.Listen(netip.AddrPort{}, nil)
	err := send.SendBatch(
		[][]byte{[]byte("1"), []byte("2"), []byte("3")},
		[]netip.AddrPort{a.LocalAddr(), b.LocalAddr(), a.LocalAddr()})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if fmt.Sprint(logs["a"]) != "[1 3]" || fmt.Sprint(logs["b"]) != "[2]" {
		t.Fatalf("logs = %v", logs)
	}
	if err := send.SendBatch([][]byte{[]byte("x")}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if s.InFlight() != 0 {
		t.Fatal("mismatched SendBatch scheduled datagrams")
	}
}

// TestBatchCoalescingStopsAtTimer verifies the determinism-critical
// boundary: a burst is only a run of deliveries that are consecutive in
// (timestamp, seq) order, so a timer interleaved mid-burst splits the
// batch and fires between the two halves — exactly where per-packet
// execution would have run it.
func TestBatchCoalescingStopsAtTimer(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var log bytes.Buffer
	recv, err := s.ListenBatch(netip.AddrPort{}, func(pkts [][]byte, _ []netip.AddrPort) {
		fmt.Fprintf(&log, "batch%d[", len(pkts))
		for _, p := range pkts {
			log.Write(p)
		}
		log.WriteString("]")
	})
	if err != nil {
		t.Fatal(err)
	}
	send, _ := s.Listen(netip.AddrPort{}, nil)
	to := recv.LocalAddr()
	_ = send.Send([]byte("a"), to)
	_ = send.Send([]byte("b"), to)
	s.AfterFunc(0, func() { log.WriteString("T") })
	_ = send.Send([]byte("c"), to)
	_ = send.Send([]byte("d"), to)
	s.Run()
	if got, want := log.String(), "batch2[ab]Tbatch2[cd]"; got != want {
		t.Fatalf("event order = %q, want %q", got, want)
	}
}

// batchParityCampaign runs a mixed workload (two senders, interleaved
// timers, per-packet latency jitter) against a receiver bound either
// per-packet or batched, and returns the per-packet observation log.
// Batching must not change it.
func batchParityCampaign(t *testing.T, batched bool) string {
	t.Helper()
	s := NewSim(time.Unix(0, 0))
	jitter := 0
	s.Latency = func(from, to netip.AddrPort, size int) (time.Duration, bool) {
		jitter = (jitter*31 + size) % 3
		return time.Duration(jitter) * time.Millisecond, true
	}
	var log bytes.Buffer
	record := func(pkt []byte, from netip.AddrPort) {
		fmt.Fprintf(&log, "%s<-%v@%d\n", pkt, from, s.Now().UnixNano())
	}
	var recv Conn
	var err error
	if batched {
		recv, err = s.ListenBatch(netip.AddrPort{}, func(pkts [][]byte, from []netip.AddrPort) {
			for i := range pkts {
				record(pkts[i], from[i])
			}
		})
	} else {
		recv, err = s.Listen(netip.AddrPort{}, record)
	}
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := s.Listen(netip.AddrPort{}, nil)
	s2, _ := s.Listen(netip.AddrPort{}, nil)
	to := recv.LocalAddr()
	for round := 0; round < 8; round++ {
		for i := 0; i < 4; i++ {
			_ = s1.Send([]byte(fmt.Sprintf("r%d.1-%d", round, i)), to)
		}
		s.AfterFunc(time.Duration(round)*time.Millisecond, func() {
			log.WriteString("tick\n")
		})
		_ = s2.SendBatch(
			[][]byte{[]byte(fmt.Sprintf("r%d.2-a", round)), []byte(fmt.Sprintf("r%d.2-b", round))},
			[]netip.AddrPort{to, to})
		s.RunFor(10 * time.Millisecond)
	}
	s.Run()
	return log.String()
}

// TestBatchDeliveryMatchesPerPacket verifies byte-identical observation
// order between a per-packet and a batch-bound receiver under the same
// workload — batching is a transport optimization, never a semantic
// change.
func TestBatchDeliveryMatchesPerPacket(t *testing.T) {
	single := batchParityCampaign(t, false)
	batch := batchParityCampaign(t, true)
	if single == "" {
		t.Fatal("campaign recorded nothing")
	}
	if single != batch {
		t.Fatalf("batched order diverged:\n--- per-packet ---\n%s--- batched ---\n%s", single, batch)
	}
}

// TestSendAfterCloseFails pins the satellite bugfix: once Close has
// returned, Send and SendBatch deterministically fail with ErrClosed
// and schedule nothing — closed-ness is decided under the same lock
// that schedules sends, so there is no window for a datagram to leave
// a closed conn.
func TestSendAfterCloseFails(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	recv, _ := s.Listen(netip.AddrPort{}, func([]byte, netip.AddrPort) {
		t.Error("delivery from a closed conn")
	})
	c, err := s.Listen(netip.AddrPort{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("x"), recv.LocalAddr()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
	err = c.SendBatch([][]byte{[]byte("x")}, []netip.AddrPort{recv.LocalAddr()})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("SendBatch after Close = %v, want ErrClosed", err)
	}
	if s.InFlight() != 0 {
		t.Fatalf("closed conn scheduled %d datagrams", s.InFlight())
	}
	s.Run()
}

// TestCancelledTimersRemovedFromHeap pins the satellite bugfix: a
// cancelled timer leaves the event heap immediately instead of rotting
// as a tombstone, so set/cancel churn (retries, timeouts) keeps the
// heap bounded by the number of *live* timers.
func TestCancelledTimersRemovedFromHeap(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	heapLen := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.events.Len()
	}
	const churn = 10000
	live := 0
	for i := 0; i < churn; i++ {
		fired := false
		cancel := s.AfterFunc(time.Duration(i)*time.Microsecond, func() { fired = true })
		if i%100 == 0 {
			live++ // keep every 100th timer
			continue
		}
		cancel()
		cancel() // double-cancel must be a no-op
		if fired {
			t.Fatal("cancelled timer fired")
		}
	}
	if got := heapLen(); got != live {
		t.Fatalf("heap holds %d events after churn, want %d (tombstones left behind)", got, live)
	}
	s.Run()
	if got := heapLen(); got != 0 {
		t.Fatalf("heap holds %d events after drain, want 0", got)
	}
	// Cancelling after the timer fired (or after another heap reshuffle)
	// must not disturb unrelated events.
	var fired int
	cancelA := s.AfterFunc(time.Millisecond, func() { fired++ })
	s.AfterFunc(2*time.Millisecond, func() { fired++ })
	s.Run()
	cancelA() // fire-then-cancel: too late, but must be harmless
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// batchDeliveryHarness mirrors deliveryHarness for the batch path: one
// step sends a burst of batchSize datagrams with SendBatch and drains
// the coalesced delivery.
func batchDeliveryHarness(tb testing.TB, size, batchSize int) func() {
	s := NewSim(time.Unix(0, 0))
	s.Latency = func(netip.AddrPort, netip.AddrPort, int) (time.Duration, bool) {
		return time.Millisecond, true
	}
	var got int
	recv, err := s.ListenBatch(netip.AddrPort{}, func(pkts [][]byte, _ []netip.AddrPort) {
		got += len(pkts)
	})
	if err != nil {
		tb.Fatal(err)
	}
	send, err := s.Listen(netip.AddrPort{}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	pkts := make([][]byte, batchSize)
	dests := make([]netip.AddrPort, batchSize)
	for i := range pkts {
		pkts[i] = make([]byte, size)
		dests[i] = recv.LocalAddr()
	}
	return func() {
		if err := send.SendBatch(pkts, dests); err != nil {
			tb.Fatal(err)
		}
		s.Run()
	}
}

// TestSimDeliverBatchZeroAlloc guards the coalesced delivery path: with
// warm pools and scratch, scheduling a 32-packet burst and delivering
// it as one batch must not allocate.
func TestSimDeliverBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	step := batchDeliveryHarness(t, 1000, 32)
	for i := 0; i < 64; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(512, step); allocs != 0 {
		t.Errorf("batched datagram delivery: %.2f allocs/op, want 0", allocs)
	}
}

// BenchmarkSimDeliverBatch measures the burst send-schedule-deliver
// cycle; compare per-datagram cost against BenchmarkSimDeliver.
func BenchmarkSimDeliverBatch(b *testing.B) {
	const batchSize = 32
	step := batchDeliveryHarness(b, 1000, batchSize)
	step() // warm pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
