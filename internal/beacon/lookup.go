package beacon

import (
	"slices"
	"sort"

	"sciera/internal/addr"
	"sciera/internal/segment"
)

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
// (core.Network.Paths and the control service) select through here.
//
// A zero dst names no destination: no down segments, every core segment.
func (reg *Registry) Lookup(src, dst addr.IA) (ups, cores, downs []*segment.Segment) {
	if db := reg.Up[src]; db != nil {
		ups = db.All()
	}
	if dst.IsZero() {
		return ups, reg.Core.Get(0, 0), nil
	}
	downs = reg.Down.Get(0, dst)
	type keyed struct {
		id  string
		seg *segment.Segment
	}
	var sel []keyed
	for _, a := range joints(src, ups) {
		for _, b := range joints(dst, downs) {
			for _, s := range append(reg.Core.Get(a, b), reg.Core.Get(b, a)...) {
				sel = append(sel, keyed{s.ID(), s})
			}
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
