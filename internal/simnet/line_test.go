package simnet

import (
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"time"
)

// scriptWire is FuzzLineDelivery's delay model, a Wire and (through
// lineTwin) a LatencyFunc alike: capped spaces datagrams out behind a
// busy horizon at 1 µs per byte, as a circuit does; jitter adds a delay
// that falls and rises with the size, so a run can precede the line's
// newest; lossy drops every size divisible by 5.
type scriptWire struct {
	capped, jitter, lossy bool
	busy                  int64
}

func (w *scriptWire) Delay(size int, now int64) (time.Duration, bool) {
	if w.lossy && size%5 == 0 {
		return 0, false
	}
	d := int64(time.Millisecond)
	if w.jitter {
		d += int64(size%4) * int64(300*time.Microsecond)
	}
	if w.capped {
		start := max(now, w.busy)
		w.busy = start + int64(size)*int64(time.Microsecond)
		d += w.busy - now
	}
	return time.Duration(d), true
}

// lineTwin is one of FuzzLineDelivery's two simulators: src sends to
// dst over the script wire, bound (the line) or through Latency (one
// event per run); src2 and src's sends to other take a fixed Latency
// in both.
type lineTwin struct {
	t                   *testing.T
	sim                 *Sim
	src, src2, dst, oth Conn
	dstAddr             netip.AddrPort
	transcript          []string
	timers              int
}

func newLineTwin(t *testing.T, bound bool, w *scriptWire) *lineTwin {
	s := NewSim(time.Unix(0, 0))
	x := &lineTwin{t: t, sim: s}
	listen := func(h Handler) Conn {
		c, err := s.Listen(netip.AddrPort{}, h)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	x.src, x.src2 = listen(nil), listen(nil)
	x.oth = listen(func(pkt []byte, from netip.AddrPort) {
		x.record("other t=%d from=%v %x", s.now, from, pkt)
	})
	x.listenDst(netip.AddrPort{})
	x.dstAddr = x.dst.LocalAddr()
	s.Latency = func(from, to netip.AddrPort, size int) (time.Duration, bool) {
		if !bound && from == x.src.LocalAddr() && to == x.dstAddr {
			return w.Delay(size, s.now)
		}
		return time.Millisecond + time.Duration(size%3)*time.Microsecond, true
	}
	if bound {
		if err := s.BindWire(x.src.LocalAddr(), x.dstAddr, w); err != nil {
			t.Fatal(err)
		}
	}
	return x
}

func (x *lineTwin) record(format string, args ...any) {
	x.transcript = append(x.transcript, fmt.Sprintf(format, args...))
}

func (x *lineTwin) listenDst(at netip.AddrPort) {
	c, err := x.sim.ListenBatch(at, func(pkts [][]byte, from []netip.AddrPort) {
		x.record("batch t=%d n=%d", x.sim.now, len(pkts))
		for i, pkt := range pkts {
			x.record("  from=%v %x", from[i], pkt)
		}
	})
	if err != nil {
		x.t.Fatal(err)
	}
	x.dst = c
}

// FuzzLineDelivery holds a wire's line to one event per run: two
// simulators driven by the same bytes, one with src bound to dst by
// BindWire and one deciding the same delay model in its Latency, must
// hand every handler the same datagrams from the same senders at the
// same times in the same batches, and agree on every counter.
func FuzzLineDelivery(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 2, 2, 4, 0, 1, 3, 10})
	f.Add([]byte{1, 0, 7, 3, 2, 0, 7, 5, 3, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode := data[0]
		data = data[1:]
		wire := func() *scriptWire {
			return &scriptWire{capped: mode&1 != 0, jitter: mode&2 != 0, lossy: mode&4 != 0}
		}
		twins := [2]*lineTwin{newLineTwin(t, true, wire()), newLineTwin(t, false, wire())}
		arg := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		for len(data) > 0 {
			op, n := arg()%8, arg()
			for _, x := range twins {
				x.apply(op, n)
			}
		}
		for _, x := range twins {
			x.sim.Run()
		}
		a, b := twins[0], twins[1]
		if !slices.Equal(a.transcript, b.transcript) {
			for i := range min(len(a.transcript), len(b.transcript)) {
				if a.transcript[i] != b.transcript[i] {
					t.Fatalf("transcripts diverge at line %d:\n  line:    %s\n  per-run: %s", i, a.transcript[i], b.transcript[i])
				}
			}
			t.Fatalf("transcripts of %d (line) and %d (per-run) lines", len(a.transcript), len(b.transcript))
		}
		for _, x := range twins {
			if x.sim.PendingEvents() != 0 || x.sim.InFlight() != 0 {
				t.Fatalf("after Run: %d pending, %d in flight", x.sim.PendingEvents(), x.sim.InFlight())
			}
		}
		da, la := a.sim.Stats()
		db, lb := b.sim.Stats()
		if da != db || la != lb || a.sim.ProcessedEvents() != b.sim.ProcessedEvents() ||
			a.sim.PeakPending() != b.sim.PeakPending() || a.sim.Now() != b.sim.Now() {
			t.Fatalf("counters differ: delivered %d/%d, dropped %d/%d, events %d/%d, peak %d/%d",
				da, db, la, lb, a.sim.ProcessedEvents(), b.sim.ProcessedEvents(), a.sim.PeakPending(), b.sim.PeakPending())
		}
	})
}

// apply runs one FuzzLineDelivery operation with argument n.
func (x *lineTwin) apply(op, n int) {
	pkt := func(i int) []byte { return bytes.Repeat([]byte{byte(n + i)}, 1+(n+7*i)%40) }
	switch op {
	case 0, 1: // a burst of 1–8 from src to dst; op 1 sends every third to other
		k := 1 + n%8
		pkts, dests := make([][]byte, k), make([]netip.AddrPort, k)
		for i := range pkts {
			pkts[i], dests[i] = pkt(i), x.dstAddr
			if op == 1 && i%3 == 2 {
				dests[i] = x.oth.LocalAddr()
			}
		}
		if err := x.src.SendBatch(pkts, dests); err != nil {
			x.t.Fatal(err)
		}
	case 2: // src2 sends to dst, beside the line
		if err := x.src2.Send(pkt(0), x.dstAddr); err != nil {
			x.t.Fatal(err)
		}
	case 3: // the clock advances n×37 µs
		x.sim.RunFor(time.Duration(n) * 37 * time.Microsecond)
	case 4: // n%8 events run
		for i := n % 8; i > 0 && x.sim.Step(); i-- {
		}
	case 5: // a timer n×8 µs out, possibly at a delivery's instant
		id := x.timers
		x.timers++
		x.sim.AfterFunc(time.Duration(n)*8*time.Microsecond, func() { x.record("timer %d t=%d", id, x.sim.now) })
	case 6: // dst closes: what is queued for it drops
		if err := x.dst.Close(); err != nil && !errors.Is(err, ErrClosed) {
			x.t.Fatal(err)
		}
	case 7: // dst listens again, if closed
		if _, open := x.sim.handlers[x.dstAddr]; !open {
			x.listenDst(x.dstAddr)
		}
	}
}

// TestTakenDeadlineIsInvisible: a call taken before its deadline leaves
// nothing a driver can see. The deadline's line event stays in the
// scheduler, stale, but it advances no clock, counts as no event, keeps
// neither Wait nor an Inbox read from going idle, and is not pending.
func TestTakenDeadlineIsInvisible(t *testing.T) {
	s, c, exp := newTestCalls(16)
	start := s.Now()
	taken := func() {
		t.Helper()
		id, err := c.Start(1, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if n := s.PendingEvents(); n != 1 {
			t.Fatalf("%d events pending with a call outstanding, want 1", n)
		}
		if _, ok := c.Take(id); !ok {
			t.Fatal("Take failed")
		}
		if n := s.PendingEvents(); n != 0 {
			t.Errorf("%d events pending after the call was taken, want 0", n)
		}
	}
	taken()
	if s.Wait(make(chan struct{})) {
		t.Error("Wait returned true on a channel nobody closes")
	}
	taken()
	if _, err := NewInbox[int](s, 1).Get(0); !errors.Is(err, ErrIdle) {
		t.Errorf("Inbox.Get(0) = %v, want ErrIdle", err)
	}
	taken()
	s.Run()
	if now := s.Now(); !now.Equal(start) {
		t.Errorf("the clock moved to %v, want %v", now, start)
	}
	if n := s.ProcessedEvents(); n != 0 || len(exp.ids) != 0 {
		t.Errorf("%d events processed, expired %v; want none", n, exp.ids)
	}
}

// TestLineRemoveAndRekey: timers fire in push order, d after their
// push; a removed head re-keys the line to the next live timer when
// its event surfaces, and RunUntil does not run past its deadline on
// the way.
func TestLineRemoveAndRekey(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var fired []string
	l := NewLine(s, 10*time.Millisecond, func(v int) { fired = append(fired, fmt.Sprintf("%d@%v", v, s.Now().Sub(time.Unix(0, 0)))) })
	a := l.Push(0)
	s.RunFor(time.Millisecond)
	l.Push(1)
	c := l.Push(2)
	s.RunFor(time.Millisecond)
	l.Push(3)
	if !l.Remove(a) || !l.Remove(c) || l.Remove(c) {
		t.Fatal("Remove reported the wrong timers pending")
	}
	s.RunUntil(time.Unix(0, 0).Add(10500 * time.Microsecond))
	if len(fired) != 0 || s.ProcessedEvents() != 0 {
		t.Fatalf("fired %v (%d events) before any live timer was due", fired, s.ProcessedEvents())
	}
	s.Run()
	if want := []string{"1@11ms", "3@12ms"}; !slices.Equal(fired, want) {
		t.Errorf("fired %v, want %v", fired, want)
	}
	if s.PendingEvents() != 0 || s.ProcessedEvents() != 2 {
		t.Errorf("%d pending, %d processed; want 0 and 2", s.PendingEvents(), s.ProcessedEvents())
	}
}

// TestLinePushAfter: timers pushed with delays of their own fire in push
// order at their own times; a push that would precede the line's newest
// pending timer panics, and once the line has drained any delay goes.
func TestLinePushAfter(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var fired []string
	l := NewLine(s, 0, func(v int) { fired = append(fired, fmt.Sprintf("%d@%v", v, s.Now().Sub(time.Unix(0, 0)))) })
	l.PushAfter(3*time.Millisecond, 0)
	l.PushAfter(3*time.Millisecond, 1)
	l.PushAfter(5*time.Millisecond, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a push before the line's newest timer did not panic")
			}
		}()
		l.PushAfter(4*time.Millisecond, 3)
	}()
	s.Run()
	l.PushAfter(time.Millisecond, 4)
	s.Run()
	if want := []string{"0@3ms", "1@3ms", "2@5ms", "4@6ms"}; !slices.Equal(fired, want) {
		t.Errorf("fired %v, want %v", fired, want)
	}
	if s.PendingEvents() != 0 || s.ProcessedEvents() != 4 {
		t.Errorf("%d pending, %d processed; want 0 and 4", s.PendingEvents(), s.ProcessedEvents())
	}
}

// TestLineOnUDPNet: off the simulator each timer is an AfterFunc, and
// Remove still disarms it.
func TestLineOnUDPNet(t *testing.T) {
	n := NewUDPNet()
	defer n.Close()
	got := make(chan int, 3)
	l := NewLine(n, time.Millisecond, func(v int) { got <- v })
	l.Push(1)
	if !l.Remove(l.Push(2)) {
		t.Fatal("Remove of a pending timer failed")
	}
	l.Push(3)
	seen := []int{<-got, <-got}
	slices.Sort(seen)
	if !slices.Equal(seen, []int{1, 3}) {
		t.Errorf("fired %v, want 1 and 3", seen)
	}
	select {
	case v := <-got:
		t.Errorf("removed timer fired: %d", v)
	case <-time.After(20 * time.Millisecond):
	}
}
