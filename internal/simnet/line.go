package simnet

import (
	"sync"
	"time"
)

// A line is a FIFO of pending events whose (at, seq) keys never
// decrease in push order, so the scheduler need hold only its head: one
// event per non-empty line, whose line field names it. Every entry
// reserves its seq when it is sent or pushed, exactly as an event of
// its own would, so a line changes how many events the scheduler
// sorts, never the order in which they run. A wire's runs are one kind
// (wireLine: the head run is itself the scheduler's event); the timers
// of a Line are the other (the Line keys one event of its own at its
// oldest live timer).
type line interface {
	// pop is handed e, the line's event just taken from the scheduler
	// (s.mu held), pushes the line's next head, and returns the event
	// to run in e's place: nil when e was stale, keyed at a timer that
	// has since been removed.
	pop(s *Sim, e *event) *event
}

// wireLine is the line of runs a bound conn sends to its peer (see
// BindWire). A circuit's arrivals never decrease — a Wire's delay is
// the time until its busy horizon, which only grows, plus a fixed
// propagation — so runs link through event.next in send order.
type wireLine struct{ tail *event }

// add appends run, whose seq is fresh, and reports true; it reports
// false, leaving run to be scheduled on its own, when run would arrive
// before the tail (a Wire whose delay fell).
func (w *wireLine) add(s *Sim, run *event) bool {
	switch {
	case w.tail == nil:
		s.events.Push(run)
	case run.at < w.tail.at:
		return false
	default:
		w.tail.next = run
	}
	run.line, w.tail = w, run
	return true
}

// pop pushes the run behind e before anything else is popped, so a
// batch destination's coalescing sees exactly the runs it would see
// with one scheduler event per run.
func (w *wireLine) pop(s *Sim, e *event) *event {
	if e.next != nil {
		s.events.Push(e.next)
	} else {
		w.tail = nil
	}
	e.line, e.next = nil, nil
	return e
}

// Line is a FIFO of timers: Push(v) arms f(v) to run d after the push,
// PushAfter a delay of its own that may not precede the line's newest
// timer, and the timers fire in push order unless Remove disarms one
// first. On a Sim the line holds one scheduler event, keyed
// by its oldest live timer, and keeps its timers in a ring, so a steady
// stream of pushes allocates nothing and Remove marks a timer dead in
// O(1) without touching the scheduler; a dead timer is skipped when the
// line's event reaches it, and neither advances the clock nor counts as
// an event. On any other Network each timer is an AfterFunc of its own.
// Safe for concurrent use.
type Line[T any] struct {
	net Network
	sim *Sim // nil off the simulator
	// mu guards the line: the Sim's lock on a Sim, whose scheduler
	// reads the line while it pops, and own otherwise.
	mu  *sync.Mutex
	own sync.Mutex
	d   time.Duration
	f   func(T)
	// ev is the line's scheduler event while armed, keyed by the timer
	// at front; ev.stale marks that timer removed since. fire runs the
	// timer popped last, due, as event run. Both carry fire as fn, so
	// the Sim treats them as timers (a batch stops at one).
	ev, run event
	armed   bool
	due     T
	// last is when the newest timer pushed on the Sim is due; a push
	// may not precede it while the ring holds a timer.
	last int64
	// ring holds the timers pushed and not yet passed, dead ones
	// included: positions front to back-1 (counted over all pushes) at
	// ring[pos&(len-1)].
	ring        []lineTimer[T]
	front, back uint64
	// seq numbers the timers off the simulator, where no Sim does.
	seq uint64
}

type lineTimer[T any] struct {
	at   int64
	seq  uint64
	v    T
	live bool
	stop func() // off the simulator: cancels the timer's AfterFunc
}

// Ticket names one Push of a Line, for Remove.
type Ticket struct{ pos, seq uint64 }

// NewLine creates a line on n whose timers run f(v) d after their push.
func NewLine[T any](n Network, d time.Duration, f func(T)) *Line[T] {
	l := &Line[T]{net: n, d: d, f: f, ring: make([]lineTimer[T], 16)}
	l.mu = &l.own
	if s, ok := n.(*Sim); ok {
		l.sim, l.mu = s, &s.mu
		l.ev.line = l
		l.ev.fn, l.run.fn = l.fire, l.fire
	}
	return l
}

// Push arms a timer that runs f(v) d from now.
func (l *Line[T]) Push(v T) Ticket { return l.PushAfter(l.d, v) }

// PushAfter arms a timer that runs f(v) d from now. On a Sim it panics
// when that is before the line's newest pending timer: the line would no
// longer be FIFO.
func (l *Line[T]) PushAfter(d time.Duration, v T) Ticket {
	l.mu.Lock()
	defer l.mu.Unlock()
	var at int64
	if s := l.sim; s != nil {
		if at = s.now + int64(d); at < l.last && l.front != l.back {
			panic("simnet: Line.PushAfter before the line's newest timer")
		}
		l.last = at
	}
	if l.back-l.front == uint64(len(l.ring)) {
		ring := make([]lineTimer[T], 2*len(l.ring))
		for p := l.front; p < l.back; p++ {
			ring[p&uint64(len(ring)-1)] = *l.timer(p)
		}
		l.ring = ring
	}
	pos := l.back
	l.back++
	t := l.timer(pos)
	if s := l.sim; s != nil {
		*t = lineTimer[T]{at: at, seq: s.seq, v: v, live: true}
		s.seq++
		s.countLocked()
		if !l.armed {
			l.arm(t)
		}
		return Ticket{pos, t.seq}
	}
	*t = lineTimer[T]{seq: l.seq, v: v, live: true}
	l.seq++
	tk := Ticket{pos, t.seq}
	t.stop = l.net.AfterFunc(d, func() { l.expire(tk) })
	return tk
}

// Remove disarms the timer tk names and reports whether it was still
// pending.
func (l *Line[T]) Remove(tk Ticket) bool {
	l.mu.Lock()
	t := l.find(tk)
	if t == nil {
		l.mu.Unlock()
		return false
	}
	stop := t.stop
	*t = lineTimer[T]{}
	if tk.pos == l.front {
		// The line's event is keyed at this timer: it goes stale, and
		// the scheduler re-keys it when it surfaces.
		l.ev.stale = l.armed
		l.head()
	}
	if l.sim != nil {
		l.sim.pending--
	}
	l.mu.Unlock()
	if stop != nil {
		stop()
	}
	return true
}

func (l *Line[T]) timer(pos uint64) *lineTimer[T] {
	return &l.ring[pos&uint64(len(l.ring)-1)]
}

// find returns the live timer tk names, nil when it fired or was
// removed.
func (l *Line[T]) find(tk Ticket) *lineTimer[T] {
	if tk.pos < l.front || tk.pos >= l.back {
		return nil
	}
	if t := l.timer(tk.pos); t.live && t.seq == tk.seq {
		return t
	}
	return nil
}

// head drops the dead timers at the front and returns the first live
// one, nil when none is left.
func (l *Line[T]) head() *lineTimer[T] {
	for ; l.front < l.back; l.front++ {
		if t := l.timer(l.front); t.live {
			return t
		}
	}
	return nil
}

// arm keys the line's event at t, its first live timer, and schedules
// it.
func (l *Line[T]) arm(t *lineTimer[T]) {
	l.ev.at, l.ev.seq, l.ev.stale = t.at, t.seq, false
	l.armed = true
	l.sim.events.Push(&l.ev)
}

// pop implements line: a live head becomes due and leaves the ring, and
// the line is armed again at the next live timer before anything else
// is popped.
func (l *Line[T]) pop(s *Sim, e *event) *event {
	l.armed = false
	t := l.head()
	if t == nil {
		return nil
	}
	if e.stale {
		l.arm(t)
		return nil
	}
	l.run.at, l.run.seq, l.due = t.at, t.seq, t.v
	*t = lineTimer[T]{}
	l.front++
	if t := l.head(); t != nil {
		l.arm(t)
	}
	return &l.run
}

// fire runs the timer the Sim popped last.
func (l *Line[T]) fire() {
	var zero T
	l.mu.Lock()
	v := l.due
	l.due = zero
	l.mu.Unlock()
	l.f(v)
}

// expire runs a timer off the simulator unless it was removed first.
func (l *Line[T]) expire(tk Ticket) {
	l.mu.Lock()
	t := l.find(tk)
	if t == nil {
		l.mu.Unlock()
		return
	}
	v := t.v
	*t = lineTimer[T]{}
	l.head()
	l.mu.Unlock()
	l.f(v)
}

// retarget changes the delay of a line with nothing pending, reporting
// false when something is.
func (l *Line[T]) retarget(d time.Duration) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.armed || l.front != l.back {
		return false
	}
	l.d = d
	return true
}
