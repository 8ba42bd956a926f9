package simnet

import (
	"container/heap"
)

// scheduler is the pending-event priority queue behind a Sim. Delivery
// order is defined by (at, seq) alone — see eventQueue.Less. The Sim
// runs on the calendar queue; the interface exists so the tests can put
// the binary-heap oracle (sched_test.go) behind the same Sim and require
// the identical delivery transcript.
type scheduler interface {
	// Push inserts a pending event.
	Push(e *event)
	// Pop removes and returns the (at, seq)-minimal event, nil when
	// empty.
	Pop() *event
	// Peek returns the (at, seq)-minimal event without removing it,
	// nil when empty.
	Peek() *event
	// Remove deletes a specific pending event (timer cancellation),
	// reporting whether it was found. Safe to call for events already
	// popped — those return false.
	Remove(e *event) bool
	// Len reports the number of pending events.
	Len() int
}

// calendarScheduler is a calendar queue (Brown 1988): a circular array
// of time buckets, each `width` nanoseconds wide, holding the events of
// its bucket-sequence slice of the timeline in (at, seq)-sorted order.
// Push hashes an event to its bucket in O(1) (plus a short sorted
// insert among that bucket's few residents); Pop advances a cursor over
// the buckets and takes the head of the first non-empty one. Events
// beyond the wheel's horizon (one full rotation ahead of the cursor)
// overflow into a binary heap and migrate into the wheel as the cursor
// approaches them — the "sparse horizon" fallback that keeps a handful
// of far-out timers from forcing a huge, mostly-empty wheel.
//
// The wheel resizes by doubling/halving when bucket occupancy drifts
// from ~O(1), re-deriving the bucket width from the resident events'
// actual spread, so push and pop stay O(1) amortized at any pending
// count. Resize decisions depend only on queue content, never on wall
// time, preserving run-for-run determinism.
//
// Ordering is exactly the heap's: a bucket is (at, seq)-sorted, bucket
// sequences partition the timeline monotonically, and overflow events
// are strictly later than every wheel resident. Events scheduled at or
// before the cursor (zero-delay sends, already-due timers) clamp into
// the cursor's bucket, where the sorted insert restores the exact
// global order. TestSchedulerEquivalence property-checks transcript
// identity against the heap.
type calendarScheduler struct {
	buckets [][]*event
	mask    int64 // len(buckets)-1; len is a power of two
	width   int64 // bucket width in nanoseconds
	curB    int64 // cursor: no wheel event has a bucket sequence < curB
	wcount  int   // events resident in the wheel

	// overflow holds events at least one full rotation ahead of the
	// cursor, as a standard binary heap.
	overflow eventQueue
}

const (
	calendarMinBuckets = 256
	// calendarInitWidth is the initial bucket width; the first resize
	// re-derives it from the live event spread.
	calendarInitWidth = int64(100_000) // 100µs in ns
)

func newCalendarScheduler() *calendarScheduler {
	return &calendarScheduler{
		buckets: make([][]*event, calendarMinBuckets),
		mask:    calendarMinBuckets - 1,
		width:   calendarInitWidth,
	}
}

// bseq maps an event time to its bucket sequence number (floor
// division, correct for negative times).
func (c *calendarScheduler) bseq(nanos int64) int64 {
	if nanos < 0 {
		return (nanos - c.width + 1) / c.width
	}
	return nanos / c.width
}

func (c *calendarScheduler) Len() int { return c.wcount + len(c.overflow) }

func (c *calendarScheduler) Push(e *event) {
	c.insert(e)
	if c.wcount > 2*len(c.buckets) {
		c.resize(2 * len(c.buckets))
	}
}

// insert places e into the wheel or the overflow heap without
// triggering a resize.
func (c *calendarScheduler) insert(e *event) {
	b := c.bseq(e.at.UnixNano())
	if b < c.curB {
		// At or before the cursor (zero-delay send, already-due
		// timer): clamp into the cursor's bucket; the sorted insert
		// puts it ahead of everything later.
		b = c.curB
	}
	if b >= c.curB+int64(len(c.buckets)) {
		e.slot = -1
		heap.Push(&c.overflow, e)
		return
	}
	slot := b & c.mask
	bucket := c.buckets[slot]
	// Sorted insert by (at, seq). Buckets hold O(1) events on average,
	// so the search and shift are short; the search is hand-rolled
	// (no sort.Search closure) to keep the hot path allocation-free.
	lo, hi := 0, len(bucket)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		o := bucket[mid]
		if o.at.Before(e.at) || (o.at.Equal(e.at) && o.seq < e.seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo
	bucket = append(bucket, nil)
	copy(bucket[i+1:], bucket[i:])
	bucket[i] = e
	c.buckets[slot] = bucket
	e.slot = slot
	e.idx = -1
	c.wcount++
}

// migrate moves overflow events that the cursor's current horizon now
// covers into the wheel.
func (c *calendarScheduler) migrate() {
	horizon := c.curB + int64(len(c.buckets))
	for len(c.overflow) > 0 && c.bseq(c.overflow[0].at.UnixNano()) < horizon {
		c.insert(heap.Pop(&c.overflow).(*event))
	}
}

// findMin advances the cursor to the first non-empty bucket and returns
// it, or nil when the wheel is empty. Cursor advancement is safe —
// later pushes that would land behind the cursor clamp into its bucket
// — and is what makes repeated pops O(1) amortized: each empty bucket
// is skipped once, not once per pop.
func (c *calendarScheduler) findMin() []*event {
	if c.wcount == 0 {
		return nil
	}
	for {
		if bucket := c.buckets[c.curB&c.mask]; len(bucket) > 0 {
			return bucket
		}
		c.curB++
		c.migrate()
	}
}

func (c *calendarScheduler) Pop() *event {
	bucket := c.findMin()
	if bucket == nil {
		if len(c.overflow) == 0 {
			return nil
		}
		// Sparse horizon: the wheel is empty and all pending events
		// are far out. Serve straight from the heap and jump the
		// cursor to the popped event's epoch.
		e := heap.Pop(&c.overflow).(*event)
		c.curB = c.bseq(e.at.UnixNano())
		c.migrate()
		return e
	}
	slot := c.curB & c.mask
	e := bucket[0]
	copy(bucket, bucket[1:])
	bucket[len(bucket)-1] = nil
	c.buckets[slot] = bucket[:len(bucket)-1]
	c.wcount--
	e.slot = -1
	if n := len(c.buckets); c.wcount < n/8 && n > calendarMinBuckets {
		c.resize(n / 2)
	}
	return e
}

func (c *calendarScheduler) Peek() *event {
	if bucket := c.findMin(); bucket != nil {
		return bucket[0]
	}
	if len(c.overflow) == 0 {
		return nil
	}
	return c.overflow[0]
}

func (c *calendarScheduler) Remove(e *event) bool {
	if e.slot >= 0 {
		bucket := c.buckets[e.slot]
		for i, o := range bucket {
			if o == e {
				copy(bucket[i:], bucket[i+1:])
				bucket[len(bucket)-1] = nil
				c.buckets[e.slot] = bucket[:len(bucket)-1]
				e.slot = -1
				c.wcount--
				return true
			}
		}
		return false
	}
	if e.idx >= 0 && e.idx < len(c.overflow) && c.overflow[e.idx] == e {
		heap.Remove(&c.overflow, e.idx)
		return true
	}
	return false
}

// resize rebuilds the wheel with n buckets, re-deriving the bucket
// width from the resident events' spread so average occupancy returns
// to O(1). All events (wheel and overflow) are re-inserted under the
// new geometry. Deterministic: geometry is a pure function of the
// pending set.
func (c *calendarScheduler) resize(n int) {
	events := make([]*event, 0, c.wcount+len(c.overflow))
	var lo, hi int64
	first := true
	for _, bucket := range c.buckets {
		for _, e := range bucket {
			nanos := e.at.UnixNano()
			if first {
				lo, hi, first = nanos, nanos, false
			} else {
				if nanos < lo {
					lo = nanos
				}
				if nanos > hi {
					hi = nanos
				}
			}
			events = append(events, e)
		}
	}
	events = append(events, c.overflow...)
	c.overflow = c.overflow[:0]

	// New width: twice the mean inter-event gap of the wheel
	// residents, clamped to at least 1ns. With all events at one
	// instant this degenerates to one hot bucket, which the sorted
	// insert handles correctly (just not in O(1) — the next resize
	// re-spreads as the distribution widens).
	cursorNanos := c.curB * c.width
	if span := hi - lo; span > 0 && c.wcount > 1 {
		c.width = 2 * span / int64(c.wcount)
		if c.width < 1 {
			c.width = 1
		}
	}
	c.buckets = make([][]*event, n)
	c.mask = int64(n) - 1
	c.wcount = 0
	c.curB = c.bseq(cursorNanos)
	for _, e := range events {
		c.insert(e)
	}
}
