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
			var hp, cal scheduler = &heapScheduler{}, newCalendarScheduler()

			base := time.Unix(0, 0)
			var seq uint64
			// pending holds twin events currently in both queues; the
			// two schedulers maintain position fields on the event, so
			// each gets its own copy of every logical event.
			type twin struct{ h, c *event }
			var pending []twin

			now := base
			push := func(at time.Time) {
				eh := &event{at: at, seq: seq}
				ec := &event{at: at, seq: seq}
				seq++
				hp.Push(eh)
				cal.Push(ec)
				pending = append(pending, twin{eh, ec})
			}
			randomAt := func() time.Time {
				switch rng.Intn(10) {
				case 0: // at or before the cursor (zero-delay send)
					return now
				case 1: // far future: exercises the overflow heap
					return now.Add(time.Duration(1+rng.Int63n(1e12)) * time.Nanosecond)
				case 2: // duplicate an existing pending timestamp
					if len(pending) > 0 {
						return pending[rng.Intn(len(pending))].h.at
					}
					fallthrough
				default: // near future
					return now.Add(time.Duration(rng.Int63n(5e6)) * time.Nanosecond)
				}
			}

			var popped int
			for op := 0; op < 60000; op++ {
				switch r := rng.Intn(100); {
				case r < 55: // push
					push(randomAt())
				case r < 60 && len(pending) > 0: // cancel a random pending event
					i := rng.Intn(len(pending))
					tw := pending[i]
					gh := hp.Remove(tw.h)
					gc := cal.Remove(tw.c)
					if gh != gc {
						t.Fatalf("op %d: Remove disagreement heap=%v calendar=%v", op, gh, gc)
					}
					pending[i] = pending[len(pending)-1]
					pending = pending[:len(pending)-1]
				default: // pop
					eh := hp.Pop()
					ec := cal.Pop()
					if (eh == nil) != (ec == nil) {
						t.Fatalf("op %d: pop emptiness disagreement heap=%v calendar=%v", op, eh, ec)
					}
					if eh == nil {
						continue
					}
					if !eh.at.Equal(ec.at) || eh.seq != ec.seq {
						t.Fatalf("op %d: pop order diverged: heap=(%v,%d) calendar=(%v,%d)",
							op, eh.at, eh.seq, ec.at, ec.seq)
					}
					if eh.at.After(now) {
						now = eh.at
					}
					popped++
					for i, tw := range pending {
						if tw.h == eh {
							pending[i] = pending[len(pending)-1]
							pending = pending[:len(pending)-1]
							break
						}
					}
				}
				if hp.Len() != cal.Len() {
					t.Fatalf("op %d: Len disagreement heap=%d calendar=%d", op, hp.Len(), cal.Len())
				}
			}
			// Drain completely: the tails must match too.
			for {
				eh, ec := hp.Pop(), cal.Pop()
				if (eh == nil) != (ec == nil) {
					t.Fatalf("drain: emptiness disagreement")
				}
				if eh == nil {
					break
				}
				if !eh.at.Equal(ec.at) || eh.seq != ec.seq {
					t.Fatalf("drain: order diverged: heap=(%v,%d) calendar=(%v,%d)",
						eh.at, eh.seq, ec.at, ec.seq)
				}
				popped++
			}
			if popped == 0 {
				t.Fatal("degenerate run: nothing popped")
			}
		})
	}
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
	s.Latency = func(from, to netip.AddrPort, size int, now time.Time) (time.Duration, bool) {
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
	base := time.Unix(0, 0)
	for i := range events {
		events[i] = &event{at: base.Add(time.Duration(i*31) * time.Microsecond), seq: uint64(i)}
		c.Push(events[i])
	}
	seq := uint64(population)
	// Warm through several full wheel rotations so bucket capacities
	// and the resize geometry reach steady state.
	for i := 0; i < 4*population; i++ {
		e := c.Pop()
		e.at = e.at.Add(population * 31 * time.Microsecond)
		e.seq = seq
		seq++
		c.Push(e)
	}
	step := func() {
		e := c.Pop()
		e.at = e.at.Add(population * 31 * time.Microsecond)
		e.seq = seq
		seq++
		c.Push(e)
	}
	if allocs := testing.AllocsPerRun(4096, step); allocs != 0 {
		t.Errorf("calendar queue pop+push: %.2f allocs/op, want 0", allocs)
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
				base := time.Unix(0, 0)
				rng := rand.New(rand.NewSource(1))
				var seq uint64
				for i := 0; i < population; i++ {
					s.Push(&event{at: base.Add(time.Duration(rng.Int63n(1e9))), seq: seq})
					seq++
				}
				span := time.Duration(1e9)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e := s.Pop()
					e.at = e.at.Add(span)
					e.seq = seq
					seq++
					s.Push(e)
				}
			})
		}
	}
}
