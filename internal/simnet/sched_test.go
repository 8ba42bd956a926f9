package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"
)

// heapScheduler is the classic binary heap behind the scheduler
// interface: O(log n) push/pop over the same eventQueue the calendar
// queue overflows into. It is the reference the calendar queue is
// checked against, at the queue level and under a whole Sim.
type heapScheduler struct {
	q eventQueue
}

func (h *heapScheduler) Push(e *event) {
	heap.Push(&h.q, e)
}

func (h *heapScheduler) Pop() *event {
	if len(h.q) == 0 {
		return nil
	}
	return heap.Pop(&h.q).(*event)
}

func (h *heapScheduler) Peek() *event {
	if len(h.q) == 0 {
		return nil
	}
	return h.q[0]
}

func (h *heapScheduler) Remove(e *event) bool {
	if e.idx < 0 || e.idx >= len(h.q) || h.q[e.idx] != e {
		return false
	}
	heap.Remove(&h.q, e.idx)
	return true
}

func (h *heapScheduler) Len() int { return len(h.q) }

// newTestEvent is the one way a test builds an event: keyed by its
// virtual time in Unix nanoseconds and its sequence number, the two
// fields the delivery order reads.
func newTestEvent(at int64, seq uint64) *event { return &event{at: at, seq: seq} }

// twinSchedulers drives the calendar queue and the heap oracle through
// the same operations and fails at the first disagreement. Both
// schedulers keep position fields on the event, so each gets its own
// copy of every logical event.
type twinSchedulers struct {
	tb      testing.TB
	hp, cal scheduler
	seq     uint64
	pending []twinEvent
	where   map[*event]int // heap twin -> its index in pending
	now     int64          // the latest time popped so far
	popped  int
}

type twinEvent struct{ h, c *event }

func newTwinSchedulers(tb testing.TB) *twinSchedulers {
	return &twinSchedulers{tb: tb, hp: &heapScheduler{}, cal: newCalendarScheduler(), where: map[*event]int{}}
}

func (w *twinSchedulers) push(at int64) {
	eh, ec := newTestEvent(at, w.seq), newTestEvent(at, w.seq)
	w.seq++
	w.hp.Push(eh)
	w.cal.Push(ec)
	w.where[eh] = len(w.pending)
	w.pending = append(w.pending, twinEvent{eh, ec})
	w.checkLen()
}

// remove cancels the i-th pending event in both schedulers.
func (w *twinSchedulers) remove(i int) {
	tw := w.pending[i]
	if gh, gc := w.hp.Remove(tw.h), w.cal.Remove(tw.c); gh != gc {
		w.tb.Fatalf("Remove disagreement heap=%v calendar=%v", gh, gc)
	}
	w.forget(i)
	w.checkLen()
}

// pop pops both schedulers and reports whether they were non-empty.
func (w *twinSchedulers) pop() bool {
	eh, ec := w.hp.Pop(), w.cal.Pop()
	if (eh == nil) != (ec == nil) {
		w.tb.Fatalf("pop emptiness disagreement heap=%v calendar=%v", eh, ec)
	}
	if eh == nil {
		return false
	}
	if eh.at != ec.at || eh.seq != ec.seq {
		w.tb.Fatalf("pop %d: order diverged: heap=(%d,%d) calendar=(%d,%d)",
			w.popped, eh.at, eh.seq, ec.at, ec.seq)
	}
	w.now = max(w.now, eh.at)
	w.popped++
	w.forget(w.where[eh])
	w.checkLen()
	return true
}

// drain pops until both are empty: the tails must match too.
func (w *twinSchedulers) drain() {
	for w.pop() {
	}
}

func (w *twinSchedulers) forget(i int) {
	delete(w.where, w.pending[i].h)
	last := len(w.pending) - 1
	if i != last {
		w.pending[i] = w.pending[last]
		w.where[w.pending[i].h] = i
	}
	w.pending = w.pending[:last]
}

func (w *twinSchedulers) checkLen() {
	if w.hp.Len() != w.cal.Len() {
		w.tb.Fatalf("Len disagreement heap=%d calendar=%d", w.hp.Len(), w.cal.Len())
	}
}

// TestSchedulerEquivalence property-checks the calendar queue against
// the binary heap at the scheduler level: the same randomized (seeded)
// sequence of pushes, cancels and pops — duplicate timestamps,
// past-cursor events, far-future overflow events, bursts large enough
// to force grow and shrink resizes — must drain in the identical
// (at, seq) order from both implementations.
func TestSchedulerEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			w := newTwinSchedulers(t)
			randomAt := func() int64 {
				switch rng.Intn(10) {
				case 0: // at or before the cursor (zero-delay send)
					return w.now
				case 1: // far future: exercises the overflow heap
					return w.now + 1 + rng.Int63n(1e12)
				case 2: // duplicate an existing pending timestamp
					if len(w.pending) > 0 {
						return w.pending[rng.Intn(len(w.pending))].h.at
					}
					fallthrough
				default: // near future
					return w.now + rng.Int63n(5e6)
				}
			}
			for op := 0; op < 60000; op++ {
				switch r := rng.Intn(100); {
				case r < 55:
					w.push(randomAt())
				case r < 60 && len(w.pending) > 0:
					w.remove(rng.Intn(len(w.pending)))
				default:
					w.pop()
				}
			}
			w.drain()
			if w.popped == 0 {
				t.Fatal("degenerate run: nothing popped")
			}
		})
	}
}

// FuzzSchedulerEquivalence runs arbitrary push, pop and cancel
// sequences through the calendar queue and the heap and requires the
// same pops in the same order. Each op is a byte, some followed by an
// argument: equal-time ties (at the latest pop, or at a pending
// event's time), near-future times, raw 64-bit times scaled into
// ±2^60 ns (negative and far-future ones), and bursts long enough to
// grow and shrink the wheel.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 4, 1, 0, 4, 4})
	f.Add([]byte{6, 200, 3, 7, 100, 5, 9, 4, 4, 7, 255, 4})
	f.Add([]byte{3, 0x80, 0, 0, 0, 0, 0, 0, 1, 3, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 4, 2, 1, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := newTwinSchedulers(t)
		arg := func(n int) uint64 { // the next n bytes, big-endian
			var v uint64
			for ; n > 0 && len(data) > 0; n-- {
				v, data = v<<8|uint64(data[0]), data[1:]
			}
			return v
		}
		for len(data) > 0 {
			op := data[0] % 8
			data = data[1:]
			switch op {
			case 0: // tie with the latest pop
				w.push(w.now)
			case 1: // tie with a pending event
				if i := int(arg(1)); len(w.pending) > 0 {
					w.push(w.pending[i%len(w.pending)].h.at)
				}
			case 2: // near future, up to ~65 ms out
				w.push(w.now + int64(arg(2))*1000)
			case 3: // anywhere in ±2^60 ns
				w.push(int64(arg(8)) >> 3)
			case 4:
				w.pop()
			case 5: // cancel
				if i := int(arg(1)); len(w.pending) > 0 {
					w.remove(i % len(w.pending))
				}
			case 6: // burst: 4n events, evenly spaced
				n, step := 4*int(arg(1)), int64(arg(1))*10_000
				for j := 0; j < n; j++ {
					w.push(w.now + int64(j)*step)
				}
			case 7: // 4n pops
				for n := 4 * int(arg(1)); n > 0 && w.pop(); n-- {
				}
			}
		}
		w.drain()
	})
}

// simTranscript runs a small but adversarial network workload — mixed
// unicast/burst sends over a jittery latency function, rescheduling
// timers, mid-run cancels — on a Sim over the given scheduler and
// returns the full delivery transcript.
func simTranscript(t *testing.T, events scheduler) []string {
	t.Helper()
	s := NewSim(time.Unix(0, 0))
	s.events = events
	// Deterministic pseudo-latency: spreads deliveries over microseconds
	// to days, with duplicates (same delay for every 5th size).
	s.Latency = func(from, to netip.AddrPort, size int) (time.Duration, bool) {
		if size%13 == 0 {
			return 0, false // loss
		}
		if size%5 == 0 {
			return time.Millisecond, true
		}
		return time.Duration(size%7)*time.Microsecond + time.Duration(size%3)*24*time.Hour/1000, true
	}
	var transcript []string
	mk := func(name string) Conn {
		conn, err := s.Listen(netip.AddrPort{}, func(pkt []byte, from netip.AddrPort) {
			transcript = append(transcript, fmt.Sprintf("%s %s n=%d b0=%d t=%d",
				name, from, len(pkt), pkt[0], s.Now().UnixNano()))
		})
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	a, b, c := mk("a"), mk("b"), mk("c")

	rng := rand.New(rand.NewSource(7))
	conns := []Conn{a, b, c}
	var cancels []func()
	var tick func(round int)
	tick = func(round int) {
		transcript = append(transcript, fmt.Sprintf("tick %d t=%d", round, s.Now().UnixNano()))
		if round >= 40 {
			return
		}
		// A few sends from random conns to random conns, one burst,
		// a re-armed timer, and a timer that is set and cancelled.
		for i := 0; i < 6; i++ {
			src := conns[rng.Intn(3)]
			dst := conns[rng.Intn(3)]
			pkt := make([]byte, 1+rng.Intn(64))
			pkt[0] = byte(round)
			_ = src.Send(pkt, dst.LocalAddr())
		}
		var pkts [][]byte
		var dests []netip.AddrPort
		for i := 0; i < 8; i++ {
			pkt := make([]byte, 1+rng.Intn(32))
			pkt[0] = byte(i)
			pkts = append(pkts, pkt)
			dests = append(dests, conns[rng.Intn(3)].LocalAddr())
		}
		_ = conns[rng.Intn(3)].SendBatch(pkts, dests)
		cancels = append(cancels, s.AfterFunc(time.Duration(1+rng.Intn(1000))*time.Millisecond, func() {}))
		if len(cancels) > 3 {
			cancels[rng.Intn(len(cancels))]()
		}
		s.AfterFunc(time.Duration(1+rng.Intn(50))*time.Millisecond, func() { tick(round + 1) })
	}
	tick(0)
	s.Run()
	return transcript
}

// TestSimSchedulerEquivalence is the end-to-end variant: two identical
// simulations differing only in scheduler must produce byte-identical
// delivery transcripts (payloads, senders, virtual timestamps, timer
// interleavings).
func TestSimSchedulerEquivalence(t *testing.T) {
	hp := simTranscript(t, &heapScheduler{})
	cal := simTranscript(t, newCalendarScheduler())
	if len(hp) != len(cal) {
		t.Fatalf("transcript lengths differ: heap=%d calendar=%d", len(hp), len(cal))
	}
	for i := range hp {
		if hp[i] != cal[i] {
			t.Fatalf("transcripts diverge at %d:\n  heap:     %s\n  calendar: %s", i, hp[i], cal[i])
		}
	}
	if len(hp) < 100 {
		t.Fatalf("degenerate transcript: %d lines", len(hp))
	}
}

// TestCalendarSchedulerZeroAlloc guards the calendar queue's hot path:
// with a warm steady-state population (the traffic engine's regime —
// every pop followed by a push of that flow's next event), push and pop
// must not allocate. Run by make alloc-guard.
func TestCalendarSchedulerZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	c := newCalendarScheduler()
	const population = 8192
	events := make([]*event, population)
	const period = population * 31 * int64(time.Microsecond)
	for i := range events {
		events[i] = newTestEvent(int64(i*31)*int64(time.Microsecond), uint64(i))
		c.Push(events[i])
	}
	seq := uint64(population)
	// Warm through several full wheel rotations so bucket capacities
	// and the resize geometry reach steady state.
	for i := 0; i < 4*population; i++ {
		e := c.Pop()
		e.at += period
		e.seq = seq
		seq++
		c.Push(e)
	}
	step := func() {
		e := c.Pop()
		e.at += period
		e.seq = seq
		seq++
		c.Push(e)
	}
	if allocs := testing.AllocsPerRun(4096, step); allocs != 0 {
		t.Errorf("calendar queue pop+push: %.2f allocs/op, want 0", allocs)
	}

	// A grow and shrink cycle: 8192 events join a steady 256 over one
	// period, the wheel grows to hold them, and shrinks once they have
	// run. A resize hands every bucket's array back to the wheel's pool,
	// so after warm-up the whole cycle allocates nothing either.
	c = newCalendarScheduler()
	const steady, burst = 256, 8192
	const span = steady * int64(time.Millisecond)
	seq = 0
	for i := 0; i < steady; i++ {
		c.Push(newTestEvent(int64(i)*int64(time.Millisecond), seq))
		seq++
	}
	extra := map[*event]bool{}
	extras := make([]*event, burst)
	for i := range extras {
		extras[i] = &event{}
		extra[extras[i]] = true
	}
	var now int64
	var lo, hi int
	cycle := func() {
		lo, hi = len(c.buckets), len(c.buckets)
		for i, x := range extras {
			x.at, x.seq = now+int64(i)*span/burst, seq
			seq++
			c.Push(x)
			hi = max(hi, len(c.buckets))
		}
		for left := burst; left > 0; {
			e := c.Pop()
			now = e.at
			lo = min(lo, len(c.buckets))
			if extra[e] {
				left--
				continue
			}
			e.at, e.seq = e.at+span, seq
			seq++
			c.Push(e)
		}
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(8, cycle); allocs != 0 {
		t.Errorf("calendar queue grow and shrink cycle: %.2f allocs/op, want 0", allocs)
	}
	if hi < 4*lo {
		t.Errorf("the cycle moved the wheel between %d and %d buckets, want a grow and a shrink", lo, hi)
	}
}

// BenchmarkSchedulerChurn measures the hold-model cost (pop one, push
// one) of both schedulers at increasing pending populations — the
// ablation behind the calendar queue: the heap's log(n) shows as a
// rising per-op cost, the calendar queue's stays flat.
func BenchmarkSchedulerChurn(b *testing.B) {
	for _, kind := range []struct {
		name string
		new  func() scheduler
	}{
		{"heap", func() scheduler { return &heapScheduler{} }},
		{"calendar", func() scheduler { return newCalendarScheduler() }},
	} {
		for _, population := range []int{1024, 65536, 1048576} {
			b.Run(fmt.Sprintf("%v/pending=%d", kind.name, population), func(b *testing.B) {
				s := kind.new()
				rng := rand.New(rand.NewSource(1))
				var seq uint64
				for i := 0; i < population; i++ {
					s.Push(newTestEvent(rng.Int63n(1e9), seq))
					seq++
				}
				const span = int64(1e9)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e := s.Pop()
					e.at += span
					e.seq = seq
					seq++
					s.Push(e)
				}
			})
		}
	}
}
