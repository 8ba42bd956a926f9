// Package simnet provides the two interchangeable transports the SCIERA
// reproduction runs on:
//
//   - Sim, a deterministic discrete-event simulator with a virtual clock,
//     used for the 20-day measurement campaigns and failure sweeps where
//     wall-clock execution is impossible; and
//   - UDPNet, real UDP sockets on the loopback interface, giving the
//     protocol stack an authentic IP-UDP "layer 2.5" underlay for the
//     examples and integration tests.
//
// Every component above this package (routers, control services,
// daemons, bootstrappers, applications) is written against the Network
// interface and runs unmodified on either transport.
//
// # Delay
//
// A send's delay is decided by one rule: a conn bound to its peer with
// Sim.BindWire — a point-to-point circuit, resolved once when it is
// wired — is delayed by its Wire when it sends to that peer; every
// other send is delayed by Sim.Latency.
//
// # Buffer ownership
//
// Both transports enforce the same zero-copy-friendly contract:
//
//   - Send copies the datagram before returning. The caller keeps
//     ownership of its buffer and may reuse or mutate it immediately —
//     this is what lets the border router serialize every outgoing
//     packet into one per-processor scratch buffer.
//   - A Handler owns the pkt slice only for the duration of the call.
//     It may read and mutate it in place (the router patches path
//     pointers directly in the received bytes) and may pass it to Send,
//     but it must NOT retain the slice after returning: the transport
//     recycles delivery buffers. Handlers that keep payload bytes
//     (receive queues, reassembly maps) must copy them.
//
// On Sim, every receiver additionally gets its own private copy:
// broadcast fan-out never shares one buffer across handlers.
//
// # Determinism
//
// Sim is fully deterministic: given the same construction parameters
// and the same sequence of calls, two simulations execute the same
// events at the same virtual times in the same order. Delivery order is
// decided by (timestamp, sequence number) alone — the timestamp an
// int64 of Unix nanoseconds, compared as an integer — and sequence numbers
// are assigned in a run-independent way — in particular, broadcast
// fan-out sorts its destination set before scheduling rather than
// iterating a Go map.
//
// # One clock
//
// Every deadline and timeout above this package is a transport timer
// (AfterFunc) read against the transport clock (Now), and a blocking
// call waits on its transport (Wait): on the simulator the caller's
// goroutine executes events until the answer it awaits is in, so
// blocking request/response code runs on the same deterministic event
// loop as the campaigns and nothing else has to drive the simulator.
// Servers are handlers, not goroutines.
package simnet

import (
	"errors"
	"net/netip"
	"sync"
	"time"
)

// Handler processes one received datagram. Handlers must not block: on
// the simulator they run inside the event loop (a Wait from a handler
// panics); on UDPNet they run on the socket's read goroutine. The pkt
// buffer is only valid for the duration of the call (see the package
// comment on buffer ownership); handlers may mutate it in place but must
// copy anything they retain.
type Handler func(pkt []byte, from netip.AddrPort)

// BatchHandler processes a burst of datagrams delivered back-to-back:
// pkts[i] arrived from from[i], in arrival order. The same no-blocking
// and buffer-ownership rules as Handler apply to every buffer in the
// batch, and the pkts/from slices themselves are transport scratch —
// valid only for the duration of the call. A batch is never empty; a
// transport that cannot coalesce (or has nothing to coalesce with)
// delivers batches of one.
type BatchHandler func(pkts [][]byte, from []netip.AddrPort)

// Conn is an attachment point able to send datagrams.
type Conn interface {
	// LocalAddr returns the bound address.
	LocalAddr() netip.AddrPort
	// Send transmits a datagram. The transport copies pkt before
	// returning: the caller keeps ownership of the buffer and may
	// reuse it immediately.
	Send(pkt []byte, to netip.AddrPort) error
	// SendBatch transmits a burst, pkts[i] to dests[i], in order, with
	// the same semantics as len(pkts) consecutive Send calls — same
	// copying, same delivery order — but a single scheduling pass (on
	// the simulator: one lock acquisition for the whole burst). The two
	// slices must have equal length. On error, a prefix of the burst
	// may already have been sent.
	SendBatch(pkts [][]byte, dests []netip.AddrPort) error
	// Close detaches the conn; the handler will not be invoked again.
	Close() error
}

// Network abstracts a datagram transport plus its clock.
type Network interface {
	// Listen attaches a handler at the preferred address. A zero port
	// requests automatic assignment; the simulator additionally accepts
	// a zero AddrPort and allocates a fresh address.
	Listen(preferred netip.AddrPort, h Handler) (Conn, error)
	// ListenBatch is Listen with a burst-aware handler: datagrams that
	// arrive back-to-back (on the simulator, consecutive in event
	// order at one virtual instant) are handed over as one batch.
	ListenBatch(preferred netip.AddrPort, h BatchHandler) (Conn, error)
	// Now returns the transport's notion of current time.
	Now() time.Time
	// AfterFunc schedules f after d; the returned function cancels.
	AfterFunc(d time.Duration, f func()) (cancel func())
	// Wait blocks until done is closed and reports whether it was. The
	// simulator executes events in the caller's goroutine while it
	// waits and returns false once none is left (nothing can close done
	// any more); UDPNet just blocks.
	Wait(done <-chan struct{}) bool
}

// Errors of the blocking helpers.
var (
	// ErrIdle reports that the transport ran out of events before the
	// awaited answer arrived.
	ErrIdle = errors.New("simnet: transport idle before the awaited answer")
	// ErrDeadline reports an Inbox read whose timeout fired first.
	ErrDeadline = errors.New("simnet: read deadline exceeded")
)

// Await turns an asynchronous call into a blocking one: start issues
// the call and hands it done, which the call's callback must invoke
// exactly once; Await waits on the transport until it has.
func Await(n Network, start func(done func())) error {
	ch := make(chan struct{})
	start(func() { close(ch) })
	if !n.Wait(ch) {
		return ErrIdle
	}
	return nil
}

// Inbox is a bounded receive queue that a handler fills and a blocking
// reader drains, waiting on the transport and timing out on its clock.
// Safe for concurrent use.
type Inbox[T any] struct {
	net Network
	max int

	mu     sync.Mutex
	q      []T
	closed bool
	// wake is closed, and cleared, when the state a waiting reader
	// sleeps on changes: an item arrives, the inbox closes, or its
	// timeout fires.
	wake chan struct{}
}

// NewInbox creates an inbox holding at most max items.
func NewInbox[T any](n Network, max int) *Inbox[T] {
	return &Inbox[T]{net: n, max: max}
}

// Put enqueues v, dropping it (as a full socket buffer would) when the
// inbox is full or closed; it never blocks.
func (b *Inbox[T]) Put(v T) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || len(b.q) >= b.max {
		return
	}
	b.q = append(b.q, v)
	b.wakeLocked()
}

// Close makes every pending and later Get on an empty inbox fail with
// ErrClosed.
func (b *Inbox[T]) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.wakeLocked()
}

func (b *Inbox[T]) wakeLocked() {
	if b.wake != nil {
		close(b.wake)
		b.wake = nil
	}
}

// Get dequeues the oldest item, waiting on the transport for one. A
// positive timeout bounds the wait on the transport clock (ErrDeadline);
// zero waits until an item arrives, the inbox closes (ErrClosed) or the
// transport goes idle (ErrIdle).
func (b *Inbox[T]) Get(timeout time.Duration) (T, error) {
	var zero T
	expired := false
	if timeout > 0 {
		cancel := b.net.AfterFunc(timeout, func() {
			b.mu.Lock()
			expired = true
			b.wakeLocked()
			b.mu.Unlock()
		})
		defer cancel()
	}
	for {
		b.mu.Lock()
		switch {
		case len(b.q) > 0:
			v := b.q[0]
			b.q[0] = zero
			b.q = b.q[1:]
			b.mu.Unlock()
			return v, nil
		case b.closed:
			b.mu.Unlock()
			return zero, ErrClosed
		case expired:
			b.mu.Unlock()
			return zero, ErrDeadline
		}
		if b.wake == nil {
			b.wake = make(chan struct{})
		}
		wake := b.wake
		b.mu.Unlock()
		if !b.net.Wait(wake) {
			return zero, ErrIdle
		}
	}
}

// errCallsFull reports a Start while every id is outstanding.
var errCallsFull = errors.New("simnet: every call id is outstanding")

// Calls correlates request/response exchanges by id on the transport
// clock. Start claims an id and arms the call's deadline; whoever takes
// the call first — a reply, an error naming it, a send error or the
// deadline — owns it, so each call resolves exactly once with no
// sync.Once. Outstanding calls sit in a ring indexed by id modulo its
// power-of-two length, which starts at 16 and doubles when full: it is
// sized by what is outstanding at once. Deadlines wait on one Line per
// timeout in use, so on a Sim a steady stream of calls allocates
// nothing for its timeouts and a call taken before its deadline leaves
// no trace in the simulation. Safe for concurrent use.
type Calls[T any] struct {
	net Network
	// mask is the id space, the caller's wire-field width: ids wrap at
	// mask+1.
	mask uint64
	// expired receives each call its deadline took.
	expired func(id uint64, v T)

	mu   sync.Mutex
	next uint64
	ring []call[T]
	live int
	// starts counts the calls started, numbering each call's deadline.
	starts uint64
	lines  []*Line[deadline]
}

// call is one ring slot. start is the number its deadline carries, so
// a deadline that outlived its call never takes one that reuses the id.
type call[T any] struct {
	live   bool
	id     uint64
	start  uint64
	v      T
	line   *Line[deadline]
	ticket Ticket
}

// deadline is what a call's timeout carries on its line.
type deadline struct{ id, start uint64 }

// NewCalls creates a correlator whose ids are bits wide (1 to 64);
// expired receives each call its deadline took.
func NewCalls[T any](n Network, bits int, expired func(id uint64, v T)) *Calls[T] {
	mask := ^uint64(0) >> (64 - bits)
	return &Calls[T]{net: n, mask: mask, expired: expired, ring: make([]call[T], min(15, mask)+1)}
}

// Start claims the next free id for v and arms its deadline, timeout
// from now. An id still held by an older call (a straggler a whole ring
// behind) is skipped: its turn passes. Start fails when every id is
// outstanding.
func (c *Calls[T]) Start(v T, timeout time.Duration) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.live == len(c.ring) {
		if uint64(len(c.ring))-1 == c.mask {
			return 0, errCallsFull
		}
		old := c.ring
		c.ring = make([]call[T], 2*len(old))
		for _, cl := range old {
			c.ring[cl.id&uint64(len(c.ring)-1)] = cl
		}
	}
	for {
		c.next = (c.next + 1) & c.mask
		slot := &c.ring[c.next&uint64(len(c.ring)-1)]
		if !slot.live {
			c.starts++
			l := c.lineFor(timeout)
			*slot = call[T]{live: true, id: c.next, start: c.starts, v: v, line: l}
			c.live++
			slot.ticket = l.Push(deadline{c.next, c.starts})
			return c.next, nil
		}
	}
}

// lineFor returns the line of deadlines timeout after their start: the
// one already in use, else an idle one retargeted, else a new one.
func (c *Calls[T]) lineFor(timeout time.Duration) *Line[deadline] {
	for _, l := range c.lines {
		if l.d == timeout {
			return l
		}
	}
	for _, l := range c.lines {
		if l.retarget(timeout) {
			return l
		}
	}
	l := NewLine(c.net, timeout, c.expire)
	c.lines = append(c.lines, l)
	return l
}

// Take removes call id and disarms its deadline, handing the call to
// the caller; ok is false when id is not outstanding (another outcome
// took it first).
func (c *Calls[T]) Take(id uint64) (v T, ok bool) {
	c.mu.Lock()
	slot := &c.ring[id&uint64(len(c.ring)-1)]
	if !slot.live || slot.id != id {
		c.mu.Unlock()
		return v, false
	}
	cl := *slot
	*slot = call[T]{}
	c.live--
	c.mu.Unlock()
	cl.line.Remove(cl.ticket)
	return cl.v, true
}

// expire is the deadline lines' callback: it takes the call the
// deadline was armed for, if nothing took it first.
func (c *Calls[T]) expire(d deadline) {
	c.mu.Lock()
	slot := &c.ring[d.id&uint64(len(c.ring)-1)]
	if !slot.live || slot.start != d.start {
		c.mu.Unlock()
		return
	}
	v := slot.v
	*slot = call[T]{}
	c.live--
	c.mu.Unlock()
	c.expired(d.id, v)
}

// TakeFirst takes, for a reply that carries no id, the oldest
// outstanding call that match accepts: the first live slot round the
// ring from the last id handed out. match runs without the lock held.
func (c *Calls[T]) TakeFirst(match func(id uint64, v T) bool) (v T, ok bool) {
	c.mu.Lock()
	live := make([]call[T], 0, c.live)
	for i := range c.ring {
		if cl := c.ring[(c.next+1+uint64(i))&uint64(len(c.ring)-1)]; cl.live {
			live = append(live, cl)
		}
	}
	c.mu.Unlock()
	for _, cl := range live {
		if match(cl.id, cl.v) {
			if v, ok := c.Take(cl.id); ok {
				return v, true
			}
		}
	}
	return v, false
}

// Len returns the number of outstanding calls.
func (c *Calls[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}
