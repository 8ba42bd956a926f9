package beacon

import (
	"encoding/binary"
	"hash/fnv"
	"maps"
	"slices"
	"sort"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/segment"
)

// Token is the one validity rule of path resolution: the change stamps
// of the two stores a lookup reads. Two equal
// tokens mean Lookup selects, and Combine returns, the same thing.
// Stamps fold in each store's process-unique identity, so a token moves
// on in-place mutation and never matches across registries (a refresh
// publishes a new one) or between a registry and its clone.
type Token struct{ core, down uint64 }

// Token reads the validity token for lookups from src — the same for
// every src, since an AS's up segments are read from Down. It is the
// only reader of the stamps: the memo behind Paths and the control
// service's Gen/NotModified answer both go through it.
func (reg *Registry) Token(src addr.IA) Token {
	return Token{core: reg.Core.Stamp(), down: reg.Down.Stamp()}
}

// Ups returns the up segments of ia: the registered segments that end
// there, in segment-ID order. A wildcard names no AS and has none.
func (reg *Registry) Ups(ia addr.IA) []*segment.Segment {
	if ia.IsWildcard() {
		return nil
	}
	return reg.Down.Get(0, ia)
}

// Gen folds the token into the one word "paths" responses carry on the
// wire. Never 0 — daemons use 0 for "nothing cached".
func (t Token) Gen() uint64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[0:], t.core)
	binary.BigEndian.PutUint64(buf[8:], t.down)
	h.Write(buf[:])
	return max(h.Sum64(), 1)
}

// memoEntry is one memoized path combination: the segments it was
// combined from, and the token under which they were last selected.
type memoEntry struct {
	token             Token
	ups, cores, downs []*segment.Segment
	paths             []*combinator.Path
}

// Paths resolves src to dst: Combine over the segments Lookup selects
// (paths sorted by hops, then latency), memoized per pair. An entry is
// served while the source's Token matches; on a mismatch Lookup runs
// again, and when it selects the very segments (pointer for pointer)
// the entry was combined from, the entry is re-stamped and served, since
// Combine is a function of them; otherwise the pair is recombined, the
// paths that come out the same taken from the entry (Recombine). A
// refresh starts the registry it publishes, and Clone the clone, with
// the previous registry's entries (carryMemo), so a path set outlives a
// link event that left its segments alone. Callers share
// the returned slice and must not mutate it (path policies copy before
// reordering).
func (reg *Registry) Paths(src, dst addr.IA) []*combinator.Path {
	token, key := reg.Token(src), [2]addr.IA{src, dst}
	reg.memoMu.Lock()
	e, ok := reg.memo[key]
	reg.memoMu.Unlock()
	if ok && e.token == token {
		return e.paths
	}
	// The token was read before the segments: a store mutated in between
	// leaves an entry that fails its next check, never a stale one that
	// passes.
	ups, cores, downs := reg.Lookup(src, dst)
	if !ok || !slices.Equal(e.ups, ups) || !slices.Equal(e.cores, cores) || !slices.Equal(e.downs, downs) {
		e = memoEntry{ups: ups, cores: cores, downs: downs, paths: combinator.Recombine(e.paths, src, dst, ups, cores, downs)}
	}
	e.token = token
	reg.memoMu.Lock()
	if reg.memo == nil {
		reg.memo = make(map[[2]addr.IA]memoEntry)
	}
	reg.memo[key] = e
	reg.memoMu.Unlock()
	return e.paths
}

// carryMemo starts reg's memo with from's entries, under from's tokens:
// each is served again once Lookup on reg selects what it was combined
// from.
func (reg *Registry) carryMemo(from *Registry) {
	from.memoMu.Lock()
	reg.memo = maps.Clone(from.memo)
	from.memoMu.Unlock()
}

// Lookup selects the segments a path lookup from src to dst combines:
// src's up segments, the down segments ending at dst, and exactly the
// core segments combinator.Combine can read for that pair. Combine joins
// a core segment only between src or the core AS an up segment starts
// at and dst or the core AS a down segment starts at, in either
// direction — so those (first, last) pairs, fetched through the path
// DB's index, are its whole read set, and the rest of the core store
// stays untouched however large the topology. Cores come back in
// segment-ID order, a subsequence of Core.All(), which makes Combine's
// output identical to combining the whole store. Both lookup planes
// (Paths and the control service) select through here.
//
// A zero dst names no destination: no down segments, every core segment.
func (reg *Registry) Lookup(src, dst addr.IA) (ups, cores, downs []*segment.Segment) {
	ups = reg.Ups(src)
	if dst.IsZero() {
		return ups, reg.Core.Get(0, 0), nil
	}
	downs = reg.Down.Get(0, dst)
	type keyed struct {
		id  string
		seg *segment.Segment
	}
	var sel []keyed
	add := func(id string, s *segment.Segment) { sel = append(sel, keyed{id, s}) }
	for _, a := range joints(src, ups) {
		for _, b := range joints(dst, downs) {
			// The store hands out the ID it files each segment under.
			reg.Core.Visit(a, b, add)
			reg.Core.Visit(b, a, add)
		}
	}
	// Two sides that share a core AS select some pairs twice; a stored
	// segment's ID is unique, so duplicates sort next to each other.
	sort.Slice(sel, func(i, j int) bool { return sel[i].id < sel[j].id })
	for i, k := range sel {
		if i == 0 || k.seg != sel[i-1].seg {
			cores = append(cores, k.seg)
		}
	}
	return ups, cores, downs
}

// joints lists the ASes at which a core segment can attach on one side
// of a lookup: the endpoint itself (when it is a core AS) and the core
// AS each of its up or down segments originates at.
func joints(end addr.IA, segs []*segment.Segment) []addr.IA {
	out := []addr.IA{end}
	for _, s := range segs {
		if first := s.FirstIA(); !slices.Contains(out, first) {
			out = append(out, first)
		}
	}
	return out
}
