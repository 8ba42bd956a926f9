package simnet

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// expiries records what a Calls' timeout took, in order.
type expiries struct{ ids, vals []uint64 }

func (e *expiries) hook(id, v uint64) { e.ids, e.vals = append(e.ids, id), append(e.vals, v) }

func newTestCalls(bits int) (*Sim, *Calls[uint64], *expiries) {
	s := NewSim(time.Unix(0, 0))
	exp := &expiries{}
	return s, NewCalls(s, bits, exp.hook), exp
}

// advance starts and takes calls until the last id handed out is last.
func advance(t *testing.T, c *Calls[uint64], last uint64) {
	t.Helper()
	for c.next != last {
		id, err := c.Start(0, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.Take(id)
	}
}

// TestCallsWrap drives the id past the top of a 16-bit space while
// older calls are still outstanding: the stragglers keep their slots,
// new calls skip the ids that would land on them, and the ring stays
// the size of what is outstanding.
func TestCallsWrap(t *testing.T) {
	s, c, exp := newTestCalls(16)
	advance(t, c, 65530)
	var stragglers []uint64 // 65531..65534, ring slots 11..14
	for i := 0; i < 4; i++ {
		id, err := c.Start(uint64(i), time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		stragglers = append(stragglers, id)
	}
	// One ring's worth and more, one at a time: 65535, 0, 1, … comes
	// back round to the stragglers' slots.
	var got []uint64
	for i := 0; i < 20; i++ {
		id, err := c.Start(100, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, id)
		if v, ok := c.Take(id); !ok || v != 100 {
			t.Fatalf("Take(%d) = %d, %v", id, v, ok)
		}
	}
	want := []uint64{65535, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 16, 17, 18, 19, 20, 21, 22}
	if !slices.Equal(got, want) {
		t.Errorf("ids across the wrap = %v, want %v", got, want)
	}
	if len(c.ring) != 16 || c.Len() != 4 {
		t.Errorf("ring of %d with %d outstanding, want 16 and 4", len(c.ring), c.Len())
	}
	s.RunFor(2 * time.Minute)
	if !slices.Equal(exp.ids, stragglers) || !slices.Equal(exp.vals, []uint64{0, 1, 2, 3}) {
		t.Errorf("expired %v (values %v), want the stragglers %v once each", exp.ids, exp.vals, stragglers)
	}
	if c.Len() != 0 || s.PendingEvents() != 0 {
		t.Errorf("%d outstanding, %d events pending at the end", c.Len(), s.PendingEvents())
	}
}

// TestCallsRingGrows: more calls outstanding than slots doubles the
// ring, rehashing the live calls across the wrap, and each is taken
// once with its own value.
func TestCallsRingGrows(t *testing.T) {
	_, c, _ := newTestCalls(16)
	advance(t, c, 65500)
	ids := map[uint64]uint64{}
	for v := uint64(0); v < 48; v++ {
		id, err := c.Start(v, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := ids[id]; dup {
			t.Fatalf("id %d handed out twice", id)
		}
		ids[id] = v
	}
	if len(c.ring) != 64 || c.Len() != 48 {
		t.Errorf("ring of %d with %d outstanding, want 64 and 48", len(c.ring), c.Len())
	}
	for id, want := range ids {
		if v, ok := c.Take(id); !ok || v != want {
			t.Errorf("Take(%d) = %d, %v; want %d", id, v, ok, want)
		}
		if _, ok := c.Take(id); ok {
			t.Errorf("id %d taken twice", id)
		}
	}
}

// TestCallsTakeDisarms: a call taken by a send error right after Start
// leaves neither a slot nor a timer, and its timeout never fires.
func TestCallsTakeDisarms(t *testing.T) {
	s, c, exp := newTestCalls(16)
	id, err := c.Start(7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Take(id); !ok || v != 7 {
		t.Fatalf("Take = %d, %v", v, ok)
	}
	if c.Len() != 0 || s.PendingEvents() != 0 {
		t.Errorf("%d outstanding, %d events pending: the timeout stayed armed", c.Len(), s.PendingEvents())
	}
	s.RunFor(time.Minute)
	if _, ok := c.Take(id); ok || len(exp.ids) != 0 {
		t.Errorf("a taken call resolved again (expired %v)", exp.ids)
	}
}

// TestCallsFull: Start fails only while every id of the space is
// outstanding; a 64-bit space (a control request ID) starts like any
// other.
func TestCallsFull(t *testing.T) {
	_, wide, _ := newTestCalls(64)
	if id, err := wide.Start(0, time.Second); err != nil || id != 1 || len(wide.ring) != 16 {
		t.Errorf("64-bit Start = %d, %v with a ring of %d; want id 1, 16 slots", id, err, len(wide.ring))
	}

	_, c, _ := newTestCalls(4)
	for i := 0; i < 16; i++ {
		if _, err := c.Start(0, time.Second); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if _, err := c.Start(0, time.Second); !errors.Is(err, errCallsFull) {
		t.Fatalf("Start on a full space: %v", err)
	}
	c.Take(3)
	if id, err := c.Start(0, time.Second); err != nil || id != 3 {
		t.Errorf("Start after a Take = %d, %v; want the freed id 3", id, err)
	}
}

// TestCallsTakeFirst: a reply without an id goes to the oldest call
// that accepts it, once.
func TestCallsTakeFirst(t *testing.T) {
	_, c, _ := newTestCalls(16)
	advance(t, c, 65534)
	for v := uint64(0); v < 4; v++ { // ids 65535, 0, 1, 2
		if _, err := c.Start(v, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	odd := func(_ uint64, v uint64) bool { return v%2 == 1 }
	for _, want := range []uint64{1, 3} {
		if v, ok := c.TakeFirst(odd); !ok || v != want {
			t.Errorf("TakeFirst = %d, %v; want %d", v, ok, want)
		}
	}
	if _, ok := c.TakeFirst(odd); ok {
		t.Error("TakeFirst matched a call already taken")
	}
	if v, ok := c.TakeFirst(func(uint64, uint64) bool { return true }); !ok || v != 0 {
		t.Errorf("TakeFirst = %d, %v; want the oldest, 0", v, ok)
	}
}

// FuzzCalls drives start, reply, stray reply, send-error, expiry,
// id-less reply, wrap and stale-deadline sequences through a Calls with
// a 1- to 8-bit id space and timeouts of 1 ms to 1 s, against a map
// oracle: every call resolves exactly once, no live id is handed out
// twice, and Start fails only when the space is full. Expiries fire in
// (deadline, start) order, a call that was taken never expires, and a
// deadline left over from before an id wrap never expires the call that
// now holds the id.
func FuzzCalls(f *testing.F) {
	f.Add([]byte{3, 0, 5, 0, 9, 1, 0, 4, 20, 3, 2, 7})
	f.Add([]byte{0, 0, 1, 0, 1, 0, 1, 4, 255})
	f.Add([]byte{7, 6, 200, 0, 30, 6, 60, 5, 1, 4, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		bits := 1 + int(data[0]%8)
		data = data[1:]
		arg := func() uint64 {
			if len(data) == 0 {
				return 0
			}
			v := uint64(data[0])
			data = data[1:]
			return v
		}
		space := 1 << bits
		s := NewSim(time.Unix(0, 0))
		live := map[uint64]uint64{} // id -> value
		deadline := map[uint64]time.Time{}
		resolved := map[uint64]int{} // value -> resolutions
		taken := map[uint64]bool{}   // value -> taken by other than expiry
		var last, tokens uint64
		// lastExpiry is the (deadline, start) of the last expiry.
		var lastDeadline time.Time
		var lastStart uint64
		expiredAny := false
		var c *Calls[uint64]
		resolve := func(how string, id, v uint64, ok bool) {
			want, isLive := live[id]
			if ok != isLive || (ok && v != want) {
				t.Fatalf("%s(%d) = %d, %v; oracle %d, %v", how, id, v, ok, want, isLive)
			}
			if ok {
				delete(live, id)
				delete(deadline, id)
				resolved[v]++
				taken[v] = how != "expire"
			}
		}
		// v, the oracle's token, is the call's start number.
		c = NewCalls(s, bits, func(id, v uint64) {
			switch holder, isLive := live[id]; {
			case taken[v]:
				t.Fatalf("call %d (id %d) expired after it was taken", v, id)
			case !isLive || holder != v:
				t.Fatalf("the deadline of call %d expired id %d, held by call %d (live %v)", v, id, holder, isLive)
			case deadline[id].After(s.Now()):
				t.Fatalf("call %d expired before its deadline", id)
			case expiredAny && (deadline[id].Before(lastDeadline) || deadline[id].Equal(lastDeadline) && v < lastStart):
				t.Fatalf("call %d (deadline %v) expired after call %d (deadline %v)", v, deadline[id], lastStart, lastDeadline)
			}
			expiredAny, lastDeadline, lastStart = true, deadline[id], v
			resolve("expire", id, v, true)
		})
		start := func(timeout time.Duration) (uint64, bool) {
			id, err := c.Start(tokens, timeout)
			if len(live) == space {
				if !errors.Is(err, errCallsFull) {
					t.Fatalf("Start on a full space: %d, %v", id, err)
				}
				return 0, false
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := live[id]; dup || id >= uint64(space) {
				t.Fatalf("Start handed out id %d (live: %v, space %d)", id, dup, space)
			}
			live[id], deadline[id], last = tokens, s.Now().Add(timeout), id
			tokens++
			return id, true
		}
		for len(data) > 0 {
			op := data[0] % 8
			data = data[1:]
			switch op {
			case 0: // start, timing out 1–256 ms from now
				start(time.Duration(arg()+1) * time.Millisecond)
			case 1: // reply to a live call
				if len(live) > 0 {
					ids := sortedKeys(live)
					id := ids[int(arg())%len(ids)]
					v, ok := c.Take(id)
					resolve("Take", id, v, ok)
				}
			case 2: // a reply naming any id, live or not
				id := arg()
				v, ok := c.Take(id)
				resolve("Take", id, v, ok)
			case 3: // send error: taken right after Start
				if id, ok := start(time.Second); ok {
					v, ok := c.Take(id)
					resolve("Take", id, v, ok)
				}
			case 4: // the clock advances; due timeouts fire
				s.RunFor(time.Duration(arg()) * time.Millisecond)
				for id, d := range deadline {
					if !d.After(s.Now()) {
						t.Fatalf("call %d outlived its deadline", id)
					}
				}
			case 5: // a reply without an id: the matching call oldest round the ring
				k := arg()%3 + 1
				match := func(_ uint64, v uint64) bool { return v%k == 0 }
				age := func(id uint64) uint64 { return (last - id) & uint64(len(c.ring)-1) }
				want, found := uint64(0), false
				for id, v := range live {
					if match(id, v) && (!found || age(id) > age(want)) {
						want, found = id, true
					}
				}
				v, ok := c.TakeFirst(match)
				if ok != found || (ok && v != live[want]) {
					t.Fatalf("TakeFirst = %d, %v; oracle id %d (%d), %v", v, ok, want, live[want], found)
				}
				if ok {
					resolve("TakeFirst", want, v, ok)
				}
			case 6: // wrap: up to 255 calls started and taken at once
				for n := arg(); n > 0; n-- {
					if id, ok := start(time.Second); ok {
						v, ok := c.Take(id)
						resolve("Take", id, v, ok)
					}
				}
			case 7: // stale deadline: a 1 ms call is taken, its id comes round again on a 1 s call, and 2 ms pass
				old, ok := start(time.Millisecond)
				if !ok {
					break
				}
				v, ok := c.Take(old)
				resolve("Take", old, v, ok)
				for i := 0; i <= space; i++ {
					id, ok := start(time.Second)
					if !ok || id == old {
						break
					}
					v, ok := c.Take(id)
					resolve("Take", id, v, ok)
				}
				s.RunFor(2 * time.Millisecond)
			}
			if c.Len() != len(live) {
				t.Fatalf("Len = %d, oracle %d", c.Len(), len(live))
			}
		}
		s.RunFor(time.Hour)
		if len(live) != 0 || c.Len() != 0 || s.PendingEvents() != 0 {
			t.Fatalf("after every timeout: %d live, Len %d, %d events", len(live), c.Len(), s.PendingEvents())
		}
		for v := uint64(0); v < tokens; v++ {
			if resolved[v] != 1 {
				t.Fatalf("call %d resolved %d times", v, resolved[v])
			}
		}
	})
}

func sortedKeys(m map[uint64]uint64) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestCallsConcurrent: goroutines start and take calls while another
// drives the simulator through their deadlines; every call resolves
// once, by its Take or by its deadline. Meant for -race.
func TestCallsConcurrent(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var expired atomic.Int64
	c := NewCalls(s, 16, func(uint64, int) { expired.Add(1) })
	const workers, each = 4, 200
	var taken atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id, err := c.Start(i, time.Duration(1+i%3)*time.Millisecond)
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if _, ok := c.Take(id); ok {
						taken.Add(1)
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			s.RunFor(time.Millisecond)
		}
	}
	s.RunFor(time.Second)
	if got := taken.Load() + expired.Load(); got != workers*each {
		t.Errorf("%d taken + %d expired, want %d calls", taken.Load(), expired.Load(), workers*each)
	}
	if c.Len() != 0 || s.PendingEvents() != 0 {
		t.Errorf("%d outstanding, %d events pending", c.Len(), s.PendingEvents())
	}
}
