// Package pathdb implements the path-segment database backing SCION path
// servers: segments are registered under their (first, last) AS pair and
// looked up with optional wildcards, exactly the <ISD-AS>-keyed
// registration/lookup service the paper describes in Section 2.
//
// The store indexes the three query shapes path lookups issue: every
// segment is filed under (first, last), (any, last) and (any, any), so
// "the segments between these two ASes", "the segments ending at this
// AS" and "everything" are each a single map probe returning a
// pre-sorted bucket. Any other wildcard combination — and every query
// on a store holding a segment whose own endpoint is a wildcard, which
// beaconing never produces — is answered by a linear scan with the same
// matching rule, counted by Scans. Either way results come back ordered
// by segment ID, which makes Get's result order a property of the store
// itself rather than something each caller has to re-establish, and a
// generation counter (bumped on Insert, DeleteExpired and Clear) gives
// lookup layers a cheap token to key memoized path combinations on.
package pathdb

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sciera/internal/addr"
	"sciera/internal/segment"
)

// nextDBID hands out process-unique store identities; Stamp folds the
// identity into the change token so tokens never collide across store
// instances (a rebuilt registry's fresh DBs must not alias a prior
// generation's tokens).
var nextDBID atomic.Uint64

// entry pairs a segment with its (cached) ID: the ID is a SHA-256 of
// the route and timestamp, so sorted maintenance must not recompute it
// per comparison.
type entry struct {
	id  string
	seg *segment.Segment
}

func compareEntries(a, b entry) int { return strings.Compare(a.id, b.id) }

// pairKey is an index bucket: an exact endpoint IA on each side, or the
// any-wildcard (zero IA).
type pairKey struct{ first, last addr.IA }

// DB is a concurrency-safe segment store.
type DB struct {
	mu   sync.RWMutex
	id   uint64
	gen  uint64
	segs map[string]*segment.Segment // by segment ID
	idx  map[pairKey][]entry         // each bucket sorted by segment ID
	// weird counts stored segments whose own endpoints contain wildcard
	// components (never produced by beaconing): they are in no bucket,
	// so while there is one every lookup scans.
	weird int
	scans atomic.Uint64
	// cow marks the containers as shared with a CloneShared sibling:
	// the first mutation (Insert, DeleteExpired) copies the maps and
	// bucket slices — never the segments, which are immutable — before
	// touching them. Reads are unaffected.
	cow bool
}

// New creates an empty DB.
func New() *DB {
	return &DB{
		id:   nextDBID.Add(1),
		segs: make(map[string]*segment.Segment),
		idx:  make(map[pairKey][]entry),
	}
}

// Gen returns the store's generation: it increases whenever the stored
// segment set changes (Insert, DeleteExpired, Clear).
func (db *DB) Gen() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.gen
}

// Stamp returns an opaque change token: unequal whenever the stored
// segment set differs, including across distinct DB instances (the
// store identity is folded in, so a rebuilt registry never aliases the
// tokens of the one it replaced). Lookup layers key memoized
// combinations on it.
func (db *DB) Stamp() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.id<<24 | db.gen&0xffffff
}

// CloneShared returns a copy-on-write clone: a distinct store (fresh
// identity, so Stamp tokens never alias) that shares this store's
// segment containers until either side mutates. The segments themselves
// — the heavy immutable bytes — are never copied, only the index
// containers, and only lazily on first divergence: the same
// prefix-sharing discipline Segment.CloneForExtend applies to AS-entry
// arrays, lifted to whole stores. Converged-state snapshots use it to
// stamp out worker replicas without re-running beaconing.
func (db *DB) CloneShared() *DB {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.cow = true
	return &DB{
		id:    nextDBID.Add(1),
		gen:   db.gen,
		segs:  db.segs,
		idx:   db.idx,
		weird: db.weird,
		cow:   true,
	}
}

// Synced returns a store holding exactly want (each segment under its
// ID): db itself — same store, same Stamp — when that is what db holds,
// otherwise a CloneShared of db with only the differing IDs removed and
// inserted. db is left as it was either way, so a control-plane refresh
// republishes, token and all, the stores a link event did not change.
func (db *DB) Synced(want map[string]*segment.Segment) *DB {
	db.mu.RLock()
	same := len(want) == len(db.segs)
	if same {
		for id := range want {
			if _, ok := db.segs[id]; !ok {
				same = false
				break
			}
		}
	}
	db.mu.RUnlock()
	if same {
		return db
	}
	c := db.CloneShared()
	c.mu.Lock()
	defer c.mu.Unlock()
	// Ranges over the map shared with db while removeLocked edits the
	// owned copy, as DeleteExpired does.
	for id, seg := range c.segs {
		if _, ok := want[id]; !ok {
			c.removeLocked(id, seg)
			c.gen++
		}
	}
	for id, seg := range want {
		if seg != nil && seg.Len() > 0 {
			c.insertLocked(entry{id: id, seg: seg})
		}
	}
	return c
}

// ensureOwned makes the containers private before a mutation. Must be
// called with mu held. Bucket slices are copied at exact length into
// fresh arrays, so a sibling's in-place insertSorted/removeSorted can
// never write through shared backing storage.
func (db *DB) ensureOwned() {
	if !db.cow {
		return
	}
	segs := make(map[string]*segment.Segment, len(db.segs))
	for id, s := range db.segs {
		segs[id] = s
	}
	idx := make(map[pairKey][]entry, len(db.idx))
	for k, es := range db.idx {
		idx[k] = append([]entry(nil), es...)
	}
	db.segs, db.idx = segs, idx
	db.cow = false
}

// indexable reports whether a segment's endpoints are plain (no
// wildcard components, the zero IA included), i.e. whether its bucket
// keys name it and nothing else.
func indexable(first, last addr.IA) bool {
	return !first.IsWildcard() && !last.IsWildcard()
}

// keysOf returns the bucket keys of a segment's endpoint pair, one per
// indexed query shape.
func keysOf(first, last addr.IA) [3]pairKey {
	return [3]pairKey{{first, last}, {0, last}, {0, 0}}
}

// insertSorted files e into es keeping segment-ID order. An entry
// that sorts last is appended outright: a load in ID order (InsertAll)
// never searches and never moves anything.
func insertSorted(es []entry, e entry) []entry {
	if n := len(es); n == 0 || es[n-1].id < e.id {
		return append(es, e)
	}
	i := sort.Search(len(es), func(i int) bool { return es[i].id >= e.id })
	es = append(es, entry{})
	copy(es[i+1:], es[i:])
	es[i] = e
	return es
}

// removeSorted drops the entry with the given ID from es.
func removeSorted(es []entry, id string) []entry {
	i := sort.Search(len(es), func(i int) bool { return es[i].id >= id })
	if i >= len(es) || es[i].id != id {
		return es
	}
	return append(es[:i], es[i+1:]...)
}

// Insert registers a segment; duplicates (same ID) are ignored.
// It returns true when the segment was new.
func (db *DB) Insert(seg *segment.Segment) bool {
	if seg == nil || seg.Len() == 0 {
		return false
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.insertLocked(entry{id: seg.ID(), seg: seg})
}

// InsertAll registers a batch of segments and returns how many were new
// — the store ends up exactly as after one Insert per segment, Gen
// included. The batch is filed in segment-ID order, so each segment
// lands at the end of every bucket the batch has filled so far: loading
// an empty store, as a beaconing run does, moves nothing, where inserts
// in arrival order shift half a hash-ordered bucket three times each.
func (db *DB) InsertAll(segs []*segment.Segment) int {
	es := make([]entry, 0, len(segs))
	for _, seg := range segs {
		if seg != nil && seg.Len() > 0 {
			es = append(es, entry{id: seg.ID(), seg: seg})
		}
	}
	// Stable: of two segments with one ID the earlier is kept, as Insert
	// would have it.
	slices.SortStableFunc(es, compareEntries)
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	for _, e := range es {
		if db.insertLocked(e) {
			n++
		}
	}
	return n
}

// insertLocked files a new entry and advances Gen; a duplicate ID is
// left alone and reports false. Callers hold db.mu.
func (db *DB) insertLocked(e entry) bool {
	if _, ok := db.segs[e.id]; ok {
		return false
	}
	db.ensureOwned()
	db.segs[e.id] = e.seg
	first, last := e.seg.FirstIA(), e.seg.LastIA()
	if indexable(first, last) {
		for _, k := range keysOf(first, last) {
			db.idx[k] = insertSorted(db.idx[k], e)
		}
	} else {
		db.weird++
	}
	db.gen++
	return true
}

// Get returns segments whose construction-direction endpoints match
// (first, last); addr wildcards (zero IA, or a wildcard ISD or AS) match
// anything. Results are always sorted by segment ID — callers
// need no re-sort to make downstream processing deterministic.
func (db *DB) Get(first, last addr.IA) []*segment.Segment {
	db.mu.RLock()
	defer db.mu.RUnlock()
	es := db.matchLocked(first, last)
	if len(es) == 0 {
		return nil
	}
	out := make([]*segment.Segment, len(es))
	for i, e := range es {
		out[i] = e.seg
	}
	return out
}

// Visit calls fn with every segment Get(first, last) returns, in the
// same order, together with the segment ID the store files it under —
// callers that merge several results by ID need not hash it again. fn
// runs under the store's read lock and must not call back into db.
func (db *DB) Visit(first, last addr.IA, fn func(id string, seg *segment.Segment)) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, e := range db.matchLocked(first, last) {
		fn(e.id, e.seg)
	}
}

// matchLocked returns the entries matching (first, last) in segment-ID
// order: an index bucket for the shapes keysOf files — read-only, and
// valid only while the caller holds db.mu — and a scan for the rest.
func (db *DB) matchLocked(first, last addr.IA) []entry {
	indexed := first.IsZero() && last.IsZero() ||
		!last.IsWildcard() && (first.IsZero() || !first.IsWildcard())
	if indexed && db.weird == 0 {
		return db.idx[pairKey{first, last}]
	}
	db.scans.Add(1)
	return db.scanLocked(first, last)
}

// Scans returns how many lookups this store has answered by linear scan
// rather than from the index: zero for everything path resolution asks.
func (db *DB) Scans() uint64 { return db.scans.Load() }

// scanLocked filters every stored segment with the same wildcard
// matching as Get and sorts the result by segment ID. matchLocked takes
// it for the query shapes the index does not cover; the property tests
// hold the index to it on every shape. Callers hold db.mu.
func (db *DB) scanLocked(first, last addr.IA) []entry {
	var out []entry
	for id, s := range db.segs {
		if matches(s.FirstIA(), first) && matches(s.LastIA(), last) {
			out = append(out, entry{id, s})
		}
	}
	slices.SortFunc(out, compareEntries)
	return out
}

func matches(have, want addr.IA) bool {
	if want.IsZero() {
		return true
	}
	return have.Matches(want)
}

// All returns every stored segment, sorted by segment ID.
func (db *DB) All() []*segment.Segment {
	return db.Get(0, 0)
}

// Len returns the number of stored segments.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.segs)
}

// DeleteExpired drops segments whose hop fields have expired at time t
// and returns how many were removed. Path servers run this periodically;
// the short segment lifetime is what forces continuous beaconing.
func (db *DB) DeleteExpired(t time.Time) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	// Ranging over the pre-copy map while deleting from the owned copy
	// is fine: ensureOwned replaces db.segs, the loop keeps iterating
	// the original, and both hold the same entries.
	for id, s := range db.segs {
		if !s.Expiry().Before(t) {
			continue
		}
		db.removeLocked(id, s)
		n++
	}
	if n > 0 {
		db.gen++
	}
	return n
}

// removeLocked unfiles a stored segment. Callers hold db.mu and advance
// Gen.
func (db *DB) removeLocked(id string, s *segment.Segment) {
	db.ensureOwned()
	delete(db.segs, id)
	first, last := s.FirstIA(), s.LastIA()
	if !indexable(first, last) {
		db.weird--
		return
	}
	for _, k := range keysOf(first, last) {
		if es := removeSorted(db.idx[k], id); len(es) > 0 {
			db.idx[k] = es
		} else {
			delete(db.idx, k)
		}
	}
}

// Clear removes everything (used when recomputing control-plane state
// after topology changes).
func (db *DB) Clear() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.segs = make(map[string]*segment.Segment)
	db.idx = make(map[pairKey][]entry)
	db.weird = 0
	db.cow = false // fresh containers are owned by construction
	db.gen++
}
