// Package beacon implements SCION path exploration ("beaconing"): core
// ASes originate path-construction beacons (PCBs), neighbors extend and
// re-propagate them, and every AS keeps a bounded store of the best
// beacons per origin. Terminating a stored beacon yields a registrable
// path segment; a run leaves them in a Registry of two stores, Core and
// Down, each segment stored once.
package beacon

import (
	"fmt"
	"sort"
	"sync"

	"sciera/internal/addr"
	"sciera/internal/segment"
)

// DefaultBestPerOrigin bounds how many beacons an AS keeps per origin
// core AS. Higher values increase path diversity at the cost of control
// plane state — SCIERA tunes this up to surface its multipath richness
// (Figure 8 reports up to 113 active paths for one AS pair).
const DefaultBestPerOrigin = 24

// DefaultMaxExtraLen bounds how much longer than the shortest known
// beacon a kept beacon may be (in AS hops). Without it, selection
// retains around-the-globe detours whose distant-link failures would
// perturb path sets between unrelated ASes.
const DefaultMaxExtraLen = 3

// Entry is a stored beacon: the segment as received plus the ingress
// interface it arrived on.
type Entry struct {
	Seg    *segment.Segment
	RecvIf uint16
	// Route is Seg.RouteID(), hashed once by NewEntry: ranking and
	// deduplication compare it on every insert and selection.
	Route string
}

// NewEntry wraps a received beacon, computing its route identity.
func NewEntry(seg *segment.Segment, recvIf uint16) *Entry {
	return &Entry{Seg: seg, RecvIf: recvIf, Route: seg.RouteID()}
}

// Store keeps the best beacons per origin core AS. It is safe for
// concurrent use.
type Store struct {
	mu       sync.RWMutex
	limit    int
	extraLen int
	// byOrigin holds each origin's beacons, ranked. A list whose
	// capacity is its length is copied by the next insert, never written
	// in place: the runner shares such lists with what it records.
	byOrigin map[addr.IA][]*Entry
}

// NewStore creates a beacon store keeping up to limit beacons per origin
// (DefaultBestPerOrigin when limit <= 0), each within DefaultMaxExtraLen
// hops of the shortest kept beacon.
func NewStore(limit int) *Store {
	if limit <= 0 {
		limit = DefaultBestPerOrigin
	}
	return &Store{
		limit:    limit,
		extraLen: DefaultMaxExtraLen,
		byOrigin: make(map[addr.IA][]*Entry),
	}
}

// Insert adds a beacon if it improves the per-origin selection. It
// returns true when the beacon was newly accepted (and should therefore
// be propagated further). Beacons are identified by their route (AS and
// interface sequence): a re-beaconed segment over a known route
// replaces nothing and is not re-propagated, keeping selection — and
// therefore the network's path sets — stable across beacon intervals.
func (s *Store) Insert(seg *segment.Segment, recvIf uint16) bool {
	return s.InsertEntry(NewEntry(seg, recvIf))
}

// InsertEntry is Insert for a beacon whose route is already hashed.
func (s *Store) InsertEntry(e *Entry) bool {
	origin := e.Seg.FirstIA()
	s.mu.Lock()
	defer s.mu.Unlock()
	at, ok := s.admitLocked(origin, e.Seg.Len(), e.Route)
	if !ok {
		return false
	}
	entries := append(s.byOrigin[origin], nil)
	copy(entries[at+1:], entries[at:])
	entries[at] = e
	// Enforce the per-origin count limit and the relative length
	// window: entries are ranked shortest-first, so the survivors are a
	// prefix (which admission has checked the new beacon is in).
	keep := min(len(entries), s.limit)
	for entries[keep-1].Seg.Len() > entries[0].Seg.Len()+s.extraLen {
		keep--
	}
	s.byOrigin[origin] = entries[:keep]
	return true
}

// Admits reports exactly what Insert would return for a beacon of the
// given origin, AS-hop length and route ID, without needing the beacon:
// its route is not stored, it ranks by (length, route) inside the
// per-origin limit, and it is within the length window of the shortest
// beacon kept. A store only tightens — entries only get better, the
// window only shrinks, an evicted route ranks beyond what is kept — so a
// beacon refused now is refused after any further inserts
// (FuzzStoreAdmit). The runner asks as each candidate's turn comes, and
// builds, signs and verifies only what the store then admits.
func (s *Store) Admits(origin addr.IA, length int, route string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.admitLocked(origin, length, route)
	return ok
}

// lengthAdmits is the part of the admission rule that needs no route: a
// beacon ranks after every shorter one, so it is out when those alone
// fill the limit, or when the shortest puts it beyond the length window.
// False means Admits is false whatever the route, now and after any
// further inserts, so the runner refuses such a candidate before hashing
// its route.
func (s *Store) lengthAdmits(entries []*Entry, length int) bool {
	n := len(entries)
	if length == 0 {
		return false
	}
	if n == 0 {
		return true
	}
	return length <= entries[0].Seg.Len()+s.extraLen && (n < s.limit || entries[n-1].Seg.Len() >= length)
}

// admitLocked is the admission rule: the rank the beacon would take in
// its origin's list, and whether that rank survives the limit and the
// length window. Callers hold s.mu, or own the store outright as a
// Runner owns the stores of its run.
func (s *Store) admitLocked(origin addr.IA, length int, route string) (at int, ok bool) {
	entries := s.byOrigin[origin]
	if !s.lengthAdmits(entries, length) {
		return 0, false
	}
	// The per-origin list is kept ranked, so the beacon is placed by
	// binary search, which also finds its route if it is already stored
	// (a route fixes its length).
	at = sort.Search(len(entries), func(i int) bool {
		if n := entries[i].Seg.Len(); n != length {
			return n > length
		}
		return entries[i].Route >= route
	})
	if at < len(entries) && entries[at].Route == route {
		return 0, false
	}
	return at, at < s.limit
}

// entryLess ranks beacons: shorter AS paths first, then by the stable
// route identifier so selection is deterministic across re-beaconing.
// Keeping several short-but-distinct beacons (rather than one) is what
// preserves multipath choice.
func entryLess(a, b *Entry) bool {
	if a.Seg.Len() != b.Seg.Len() {
		return a.Seg.Len() < b.Seg.Len()
	}
	return a.Route < b.Route
}

// Best returns the stored beacons for one origin, best first.
func (s *Store) Best(origin addr.IA) []*Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*Entry(nil), s.byOrigin[origin]...)
}

// All returns every stored beacon grouped by origin.
func (s *Store) All() map[addr.IA][]*Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[addr.IA][]*Entry, len(s.byOrigin))
	for ia, es := range s.byOrigin {
		out[ia] = append([]*Entry(nil), es...)
	}
	return out
}

// Len returns the total number of stored beacons.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, es := range s.byOrigin {
		n += len(es)
	}
	return n
}

func (s *Store) String() string {
	return fmt.Sprintf("beacon.Store{%d beacons}", s.Len())
}
