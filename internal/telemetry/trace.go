package telemetry

import "sync"

// TraceVerdict classifies what the forwarding plane did with a traced
// packet.
type TraceVerdict uint8

const (
	// VerdictForwarded: sent out an egress interface to a neighbor AS.
	VerdictForwarded TraceVerdict = iota
	// VerdictDelivered: handed to an AS-local end host.
	VerdictDelivered
	// VerdictMACFail: hop-field MAC verification failed.
	VerdictMACFail
	// VerdictNoRoute: no usable egress/destination.
	VerdictNoRoute
	// VerdictLinkDown: egress circuit administratively or physically down.
	VerdictLinkDown
	// VerdictParseErr: the packet failed to decode or patch.
	VerdictParseErr
	// VerdictIngressDrop: arrival interface disagreed with the hop field.
	VerdictIngressDrop
	// VerdictDemuxHit: the dispatcher demultiplexed to a registered app.
	VerdictDemuxHit
	// VerdictDemuxMiss: no application registered for the packet's port.
	VerdictDemuxMiss
)

func (v TraceVerdict) String() string {
	switch v {
	case VerdictForwarded:
		return "forwarded"
	case VerdictDelivered:
		return "delivered"
	case VerdictMACFail:
		return "mac-fail"
	case VerdictNoRoute:
		return "no-route"
	case VerdictLinkDown:
		return "link-down"
	case VerdictParseErr:
		return "parse-err"
	case VerdictIngressDrop:
		return "ingress-drop"
	case VerdictDemuxHit:
		return "demux-hit"
	case VerdictDemuxMiss:
		return "demux-miss"
	default:
		return "?"
	}
}

// TraceEntry is one sampled packet observation.
type TraceEntry struct {
	// TimeNS is the transport clock at processing time (UnixNano).
	TimeNS int64 `json:"t_ns"`
	// IA is the observing AS packed as uint64 (addr.IA); kept as a
	// plain integer so this package stays dependency-free.
	IA uint64 `json:"ia"`
	// Ingress and Egress are the arrival and departure interface IDs
	// (0: AS-internal).
	Ingress uint16 `json:"ingress"`
	Egress  uint16 `json:"egress"`
	// Hop is the path's current hop-field index at decision time.
	Hop uint8 `json:"hop"`
	// Verdict is the forwarding outcome (includes the MAC verdict:
	// VerdictMACFail vs any of the pass outcomes).
	Verdict TraceVerdict `json:"verdict"`
	// QueueNS is the egress transmit-queue delay observed for the
	// packet's wire, when the transport models one (simulator links
	// with a bandwidth cap); 0 otherwise.
	QueueNS int64 `json:"queue_ns"`
}

// TraceRing is a sampled, fixed-size, overwrite-oldest ring of packet
// trace entries. Sampling runs on the packet hot path and is one atomic
// add plus a mask; the sampled minority takes a mutex to write into a
// preallocated slot. Nothing allocates after construction.
//
// A nil *TraceRing is valid and never samples, so call sites need no
// nil checks:
//
//	if ring.Sample() {
//		ring.Record(TraceEntry{...})
//	}
type TraceRing struct {
	mu      sync.Mutex
	entries []TraceEntry
	written uint64 // total Record calls; next slot = written % len
	mask    uint64 // sample when tick&mask == 0 (sampleEvery is a power of two)
	tick    Counter
	sampled Counter
}

// NewTraceRing creates a ring holding size entries, sampling roughly
// one in sampleEvery packets (rounded up to a power of two; <=1 traces
// every packet). size is clamped to at least 1.
func NewTraceRing(size, sampleEvery int) *TraceRing {
	if size < 1 {
		size = 1
	}
	every := uint64(1)
	for int(every) < sampleEvery {
		every <<= 1
	}
	return &TraceRing{
		entries: make([]TraceEntry, size),
		mask:    every - 1,
	}
}

// Sample reports whether the current packet should be traced, advancing
// the sampling clock. Allocation-free; safe on a nil ring (never
// samples).
func (t *TraceRing) Sample() bool {
	if t == nil {
		return false
	}
	return (t.tick.Add(1)-1)&t.mask == 0
}

// SampleN advances the sampling clock by n packets at once and reports
// how many of them Sample, called n times, would have traced — the
// count of entries a run of n packets with one fate records.
func (t *TraceRing) SampleN(n int) int {
	if t == nil || n <= 0 {
		return 0
	}
	end, every := t.tick.Add(uint64(n)), t.mask+1
	return int((end+t.mask)/every - (end-uint64(n)+t.mask)/every)
}

// Record stores one entry, overwriting the oldest when full.
// Allocation-free; no-op on a nil ring.
func (t *TraceRing) Record(e TraceEntry) {
	if t == nil {
		return
	}
	t.sampled.Inc()
	t.mu.Lock()
	t.entries[t.written%uint64(len(t.entries))] = e
	t.written++
	t.mu.Unlock()
}

// Len reports how many entries are currently held (at most the ring
// size).
func (t *TraceRing) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.written < uint64(len(t.entries)) {
		return int(t.written)
	}
	return len(t.entries)
}

// Stats reports how many packets passed the sampler and how many
// entries were recorded.
func (t *TraceRing) Stats() (seen, sampled uint64) {
	if t == nil {
		return 0, 0
	}
	return t.tick.Load(), t.sampled.Load()
}

// Snapshot copies the held entries oldest-first.
func (t *TraceRing) Snapshot() []TraceEntry {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.entries))
	if t.written < n {
		return append([]TraceEntry(nil), t.entries[:t.written]...)
	}
	out := make([]TraceEntry, 0, n)
	start := t.written % n
	out = append(out, t.entries[start:]...)
	out = append(out, t.entries[:start]...)
	return out
}
