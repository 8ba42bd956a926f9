package simnet

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"time"

	"sciera/internal/telemetry"
)

// LatencyFunc decides delivery for a datagram: the one-way delay and
// whether to deliver at all (false models loss or a severed link).
// It runs inside the simulator's lock; implementations must not call
// back into the Sim (the current virtual time is passed in).
type LatencyFunc func(from, to netip.AddrPort, size int, now time.Time) (time.Duration, bool)

// Sim is a single-threaded discrete-event network. All handlers and
// timers run inside Run/RunFor on the caller's goroutine, making
// campaigns fully deterministic: two Sims driven by the same inputs
// execute the same events in the same order with the same sequence
// numbers (broadcast fan-out is sorted by destination address, never
// left to map iteration order).
//
// Buffer ownership: Send copies the datagram while scheduling it, so
// the caller keeps ownership of its buffer and may reuse it as soon as
// Send returns. Each receiver gets its own copy (broadcast receivers
// never share a buffer) and the handler owns that copy — it may mutate
// it in place and send it onward — but only for the duration of the
// call: the simulator recycles delivery buffers after the handler
// returns, so a handler must copy anything it retains. Sim implements
// Network.
type Sim struct {
	// Latency decides per-datagram delay and delivery; nil delivers
	// everything instantly.
	Latency LatencyFunc

	mu sync.Mutex
	// events is the pending-event queue: the calendar queue, behind
	// the scheduler interface so the tests can substitute the heap.
	events scheduler
	// peakPending is the high-water mark of pending events, the load
	// metric the calendar queue exists to keep cheap; processed counts
	// events executed over the simulation's lifetime.
	peakPending int
	processed   uint64
	now         time.Time
	seq         uint64
	handlers    map[netip.AddrPort]binding
	nextHost    uint32
	nextPort    map[netip.Addr]uint16
	// delivered/dropped/inflight are telemetry cells (atomic, so they
	// are also readable outside s.mu); RegisterTelemetry exposes them.
	delivered telemetry.Counter
	dropped   telemetry.Counter
	inflight  telemetry.Gauge
	// bcast is the reusable scratch for sorted broadcast fan-out.
	bcast []netip.AddrPort
	// evPool recycles packet-delivery events together with their copy
	// buffers, keeping the steady-state forwarding path allocation-free.
	// Timer events are never pooled: their cancel closures outlive the
	// firing and would otherwise cancel a recycled event.
	evPool sync.Pool
	// batch* are the reusable scratch slices for delivery to batch-bound
	// destinations (the events coalesced behind the popped one, and the
	// handler's arguments); only the event-loop goroutine touches them,
	// between popping a burst and recycling its events.
	batchEvs  []*event
	batchPkts [][]byte
	batchFrom []netip.AddrPort
}

// binding is one attached listener: exactly one of h/bh is set.
type binding struct {
	h  Handler
	bh BatchHandler
}

// NewSim creates a simulator starting at the given time.
func NewSim(start time.Time) *Sim {
	return &Sim{
		now:      start,
		events:   newCalendarScheduler(),
		handlers: make(map[netip.AddrPort]binding),
		nextHost: 1,
		nextPort: make(map[netip.Addr]uint16),
		evPool: sync.Pool{New: func() any {
			e := new(event)
			e.pkts = e.one[:0]
			return e
		}},
	}
}

// event is either a timer (fn != nil) or a delivery (fn == nil): a run
// of datagrams from one sender to one destination with one delivery
// time — one queue entry, one pop and one handler resolution however
// long the run. A lone datagram is a run of one.
type event struct {
	at  time.Time
	seq uint64
	fn  func()
	// pkts holds the simulator-owned copies of the run's datagrams;
	// the backing arrays, including those retained beyond len(pkts), are
	// recycled with the event after the handler returns. one is its
	// initial backing, so a run of one allocates nothing beside the
	// event.
	pkts     [][]byte
	one      [1][]byte
	from, to netip.AddrPort
	// slot is the event's wheel-bucket slot while resident in a
	// calendar scheduler, -1 otherwise; idx is its position while in a
	// binary heap. Each scheduler maintains its own field.
	idx  int
	slot int64
	// cancelled timers stay in the queue but do nothing.
	cancelled bool
}

// appendPkt adds a copy of pkt to a delivery event, reusing the
// per-slot buffers a recycled event retains beyond len(pkts).
func (e *event) appendPkt(pkt []byte) {
	if len(e.pkts) < cap(e.pkts) {
		e.pkts = e.pkts[:len(e.pkts)+1]
	} else {
		e.pkts = append(e.pkts, nil)
	}
	i := len(e.pkts) - 1
	e.pkts[i] = append(e.pkts[i][:0], pkt...)
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i]; q[i].idx, q[j].idx = i, j }
func (q *eventQueue) Push(x interface{}) { e := x.(*event); e.idx = len(*q); *q = append(*q, e) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1 // no longer in the heap; guards cancel-after-pop
	*q = old[:n-1]
	return e
}

// Errors.
var (
	ErrAddrInUse = errors.New("simnet: address in use")
	ErrClosed    = errors.New("simnet: conn closed")
)

// Ephemeral port range for automatic assignment.
const (
	ephemeralLo = 30000 // exclusive: first assigned port is 30001
	ephemeralHi = 65535 // inclusive
)

// BroadcastAddr is the simulator's broadcast address: datagrams sent to
// it reach every listener bound to the destination port (the simulator
// models one broadcast domain, i.e. one LAN — matching the scope of the
// DHCP and mDNS bootstrapping mechanisms).
var BroadcastAddr = netip.AddrFrom4([4]byte{10, 255, 255, 255})

// AllocAddr returns a fresh unique simulated host address (10.x.y.z).
func (s *Sim) AllocAddr() netip.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.allocAddrLocked()
}

func (s *Sim) allocAddrLocked() netip.Addr {
	h := s.nextHost
	s.nextHost++
	return netip.AddrFrom4([4]byte{10, byte(h >> 16), byte(h >> 8), byte(h)})
}

// Listen implements Network.
func (s *Sim) Listen(preferred netip.AddrPort, h Handler) (Conn, error) {
	return s.listen(preferred, binding{h: h})
}

// ListenBatch implements Network. Deliveries to a batch-bound address
// that are consecutive in (timestamp, seq) order are coalesced into one
// handler call (see deliverRun).
func (s *Sim) ListenBatch(preferred netip.AddrPort, h BatchHandler) (Conn, error) {
	return s.listen(preferred, binding{bh: h})
}

func (s *Sim) listen(preferred netip.AddrPort, b binding) (Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := preferred
	if !a.Addr().IsValid() {
		// Fresh host address; an explicit port in `preferred` is kept
		// (e.g. binding a well-known service port on a new host).
		a = netip.AddrPortFrom(s.allocAddrLocked(), preferred.Port())
	}
	if a.Port() == 0 {
		p, err := s.allocPortLocked(a.Addr())
		if err != nil {
			return nil, err
		}
		a = netip.AddrPortFrom(a.Addr(), p)
	}
	if _, used := s.handlers[a]; used {
		return nil, fmt.Errorf("%w: %v", ErrAddrInUse, a)
	}
	s.handlers[a] = b
	return &simConn{sim: s, addr: a}, nil
}

// allocPortLocked scans the ephemeral range (30001-65535) for a free
// port on addr, wrapping at the top of the range instead of spilling
// into port 0 and the low/reserved ports. It fails with ErrAddrInUse
// once a full cycle finds every port taken.
func (s *Sim) allocPortLocked(addr netip.Addr) (uint16, error) {
	p := s.nextPort[addr]
	if p < ephemeralLo || p >= ephemeralHi {
		p = ephemeralLo
	}
	for tries := 0; tries < ephemeralHi-ephemeralLo; tries++ {
		p++
		if p > ephemeralHi {
			p = ephemeralLo + 1
		}
		if _, used := s.handlers[netip.AddrPortFrom(addr, p)]; !used {
			s.nextPort[addr] = p
			return p, nil
		}
	}
	return 0, fmt.Errorf("%w: no free ephemeral port on %v", ErrAddrInUse, addr)
}

// Now implements Network.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// AfterFunc implements Network. Cancelling removes the timer from the
// event queue immediately — retry/timeout-heavy workloads set and
// cancel far more timers than they let fire, and tombstoned corpses
// would grow the queue without bound while costing Step a lock
// round-trip each.
func (s *Sim) AfterFunc(d time.Duration, f func()) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.scheduleLocked(s.now.Add(d), f)
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if e.cancelled {
			return
		}
		e.cancelled = true
		s.events.Remove(e)
	}
}

func (s *Sim) scheduleLocked(at time.Time, f func()) *event {
	e := &event{at: at, seq: s.seq, fn: f}
	s.seq++
	s.pushLocked(e)
	return e
}

// pushLocked enqueues a pending event and maintains the high-water
// mark; the caller holds s.mu.
func (s *Sim) pushLocked(e *event) {
	s.events.Push(e)
	if n := s.events.Len(); n > s.peakPending {
		s.peakPending = n
	}
}

type simConn struct {
	sim  *Sim
	addr netip.AddrPort
	// closed is guarded by sim.mu — the same lock under which sends are
	// scheduled — so a Send racing Close either schedules entirely
	// before the close or deterministically returns ErrClosed after it;
	// no datagram can leave a conn once Close has returned.
	closed bool
}

func (c *simConn) LocalAddr() netip.AddrPort { return c.addr }

// Send implements Conn: a burst of one.
func (c *simConn) Send(pkt []byte, to netip.AddrPort) error {
	pkts, dests := [1][]byte{pkt}, [1]netip.AddrPort{to}
	return c.SendBatch(pkts[:], dests[:])
}

// SendBatch implements Conn: the whole burst is scheduled under one
// lock acquisition (and one closed check), in order, cut where the
// destination changes. A broadcast datagram goes to every listener on
// the port, each in a delivery event of its own.
func (c *simConn) SendBatch(pkts [][]byte, dests []netip.AddrPort) error {
	if len(pkts) != len(dests) {
		return fmt.Errorf("simnet: SendBatch: %d packets, %d destinations", len(pkts), len(dests))
	}
	s := c.sim
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	for i := 0; i < len(pkts); {
		to := dests[i]
		n := 1
		if to.Addr() == BroadcastAddr {
			for _, l := range s.listenersLocked(c.addr, to.Port()) {
				s.deliverLocked(c.addr, l, pkts[i:i+1])
			}
		} else {
			for i+n < len(pkts) && dests[i+n] == to {
				n++
			}
			s.deliverLocked(c.addr, to, pkts[i:i+n])
		}
		i += n
	}
	return nil
}

// deliverLocked schedules datagrams from one sender to one destination,
// copying each into a pooled buffer (the sender keeps ownership of its
// own). Consecutive datagrams with one delivery time go into one
// delivery event; a run ends exactly where scheduling each datagram on
// its own would have produced a different delivery time (a busy capped
// wire spaces packets out), so execution order — and therefore every
// downstream observation — is that of one event per datagram. A lost
// datagram is silent, and the run continues either side of it. This is
// the only place a datagram is scheduled; the caller holds s.mu.
func (s *Sim) deliverLocked(from, to netip.AddrPort, pkts [][]byte) {
	var run *event
	for _, pkt := range pkts {
		delay := time.Duration(0)
		deliver := true
		if s.Latency != nil {
			delay, deliver = s.Latency(from, to, len(pkt), s.now)
		}
		if !deliver {
			s.dropped.Inc()
			continue
		}
		at := s.now.Add(delay)
		if run == nil || !at.Equal(run.at) {
			run = s.evPool.Get().(*event)
			run.at = at
			run.seq = s.seq
			s.seq++
			run.pkts = run.pkts[:0]
			run.from, run.to = from, to
			s.pushLocked(run)
		}
		run.appendPkt(pkt)
		s.inflight.Inc()
	}
}

// listenersLocked returns every listener on the port except the sender,
// sorted, so that a broadcast's delivery events get run-independent
// sequence numbers — map iteration order must never leak into the event
// order. The result is scratch, valid until the next call; the caller
// holds s.mu.
func (s *Sim) listenersLocked(from netip.AddrPort, port uint16) []netip.AddrPort {
	dests := s.bcast[:0]
	for dest := range s.handlers {
		if dest.Port() != port || dest == from {
			continue
		}
		dests = append(dests, dest)
	}
	slices.SortFunc(dests, compareAddrPort)
	s.bcast = dests
	return dests
}

func compareAddrPort(a, b netip.AddrPort) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return int(a.Port()) - int(b.Port())
}

func (c *simConn) Close() error {
	s := c.sim
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.closed = true
	delete(s.handlers, c.addr)
	return nil
}

// Step executes the next pending event, returning false when idle.
func (s *Sim) Step() bool {
	for {
		s.mu.Lock()
		e := s.events.Pop()
		if e == nil {
			s.mu.Unlock()
			return false
		}
		if e.cancelled {
			s.mu.Unlock()
			continue
		}
		s.now = e.at
		s.processed++
		if e.fn != nil {
			fn := e.fn
			s.mu.Unlock()
			fn()
			return true
		}
		s.deliverRun(e)
		return true
	}
}

// deliverRun hands the popped delivery event e to whatever is bound at
// its destination. For a batch-bound destination it first coalesces e
// with every immediately following event in (timestamp, seq) order that
// is also a delivery there, and the handler gets the whole burst in one
// call. Coalescing stops at the first intervening timer or
// foreign-destination event, so the burst is exactly a run of
// deliveries nothing else could have interleaved — delivering them one
// by one would have observed the identical order, which is what keeps
// batch-bound runs byte-identical to unbatched ones. A per-packet
// handler is invoked once per datagram, in order. A conn that closed
// between send and delivery loses the datagrams — counted as dropped so
// Stats() conserves them. Called with s.mu held; unlocks before the
// handler.
func (s *Sim) deliverRun(e *event) {
	b := s.handlers[e.to]
	n := len(e.pkts)
	more := s.batchEvs[:0]
	if b.bh != nil {
		for {
			top := s.events.Peek()
			if top == nil || top.fn != nil || top.to != e.to || !top.at.Equal(e.at) {
				break
			}
			more = append(more, s.events.Pop())
			n += len(top.pkts)
		}
	}
	s.inflight.Add(-int64(n))
	if b.bh == nil && b.h == nil {
		s.dropped.Add(uint64(n))
	} else {
		s.delivered.Add(uint64(n))
	}
	s.mu.Unlock()
	switch {
	case b.bh != nil:
		pkts, froms := append(s.batchPkts[:0], e.pkts...), s.batchFrom[:0]
		for range e.pkts {
			froms = append(froms, e.from)
		}
		for _, ev := range more {
			pkts = append(pkts, ev.pkts...)
			for range ev.pkts {
				froms = append(froms, ev.from)
			}
		}
		b.bh(pkts, froms)
		s.batchPkts, s.batchFrom = pkts[:0], froms[:0]
	case b.h != nil:
		for _, pkt := range e.pkts {
			b.h(pkt, e.from)
		}
	}
	// The handler has returned and must not have retained any buffer;
	// recycle the events together with their buffers.
	s.evPool.Put(e)
	for i, ev := range more {
		s.evPool.Put(ev)
		more[i] = nil
	}
	s.batchEvs = more[:0]
}

// Run drains all events (use with care: periodic timers run forever;
// prefer RunUntil).
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline and advances the
// clock to the deadline.
func (s *Sim) RunUntil(deadline time.Time) {
	for {
		s.mu.Lock()
		if top := s.events.Peek(); top == nil || top.at.After(deadline) {
			if s.now.Before(deadline) {
				s.now = deadline
			}
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		s.Step()
	}
}

// RunFor advances the simulation by d.
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.Now().Add(d)) }

// RunLive processes events as they appear until stop is closed,
// sleeping briefly when idle. It lets goroutines use blocking
// request/response APIs over the simulator: virtual time jumps to each
// event's timestamp as it executes. Campaigns that need strict
// determinism should use Run/RunUntil from a single goroutine instead.
func (s *Sim) RunLive(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		if !s.Step() {
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// Stats reports delivered and dropped datagram counts. Every datagram
// accepted by Send is eventually counted exactly once: delivered when a
// handler received it, dropped when the latency function suppressed it
// or the destination conn closed before delivery. The counts are
// telemetry cells, so the same numbers appear on a registered /metrics
// endpoint (see RegisterTelemetry).
func (s *Sim) Stats() (delivered, dropped uint64) {
	return s.delivered.Load(), s.dropped.Load()
}

// InFlight reports the number of datagrams scheduled but not yet
// delivered (or lost).
func (s *Sim) InFlight() int64 { return s.inflight.Load() }

// PendingEvents reports the number of events (deliveries and timers)
// currently queued in the scheduler.
func (s *Sim) PendingEvents() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events.Len()
}

// PeakPending reports the high-water mark of pending events over the
// simulation's lifetime — the population the scheduler had to keep
// ordered, and the scale knob the calendar queue is measured against.
func (s *Sim) PeakPending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peakPending
}

// ProcessedEvents reports the number of events executed so far —
// combined with wall time it yields the scheduler's events/sec
// (bench/'s simnet.events_per_s).
func (s *Sim) ProcessedEvents() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.processed
}

// RegisterTelemetry adopts the simulator's conservation counters into a
// registry: the same cells back Stats() and the exposed series, so the
// two can never disagree.
func (s *Sim) RegisterTelemetry(reg *telemetry.Registry) {
	reg.RegisterCounter("sciera_simnet_delivered_total", "datagrams delivered to a handler", &s.delivered)
	reg.RegisterCounter("sciera_simnet_dropped_total", "datagrams lost to latency suppression or closed conns", &s.dropped)
	reg.RegisterGauge("sciera_simnet_inflight", "datagrams scheduled but not yet delivered", &s.inflight)
}
