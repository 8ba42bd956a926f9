package beacon

import (
	"sort"

	"sciera/internal/segment"
)

// DefaultPropagateBestK bounds how many same-origin beacons one AS
// re-propagates per beaconing round. Core beaconing over a dense mesh
// otherwise floods O(core²) candidates per round — on generated
// topologies with dozens of core ASes the flight set explodes while the
// stores keep only DefaultBestPerOrigin of them anyway. The bound
// exceeds the largest same-round same-origin acceptance group observed
// anywhere in the reference experiments (19, on the cross-ISD figure's
// topology), so the reference campaign is untouched by pruning
// (see DESIGN.md).
const DefaultPropagateBestK = 24

// SelectBestK picks up to k entries: candidates are ranked by AS-hop
// length with the stable route ID as tiebreak, then selected greedily so
// that each pick maximizes disjointness from the already-selected set
// (fewest shared on-path ASes, as a fraction of the shorter segment).
// Fractions are compared by integer cross-multiplication — no floats,
// so selection is bit-stable across platforms. When k is non-positive
// or the group already fits, the input is returned unchanged (same
// slice, same order): callers that only sometimes prune keep their
// original processing order on the non-pruning path.
func SelectBestK(entries []*Entry, k int) []*Entry {
	if k <= 0 || len(entries) <= k {
		return entries
	}
	cand := append([]*Entry(nil), entries...)
	sort.Slice(cand, func(i, j int) bool { return entryLess(cand[i], cand[j]) })
	selected := cand[:1:1]
	cand = cand[1:]
	for len(selected) < k {
		best := 0
		bn, bd := worstOverlap(cand[0], selected)
		for i := 1; i < len(cand); i++ {
			n, d := worstOverlap(cand[i], selected)
			// Strictly smaller overlap fraction wins; ties keep the
			// earlier (length, route ID) rank.
			if n*bd < bn*d {
				best, bn, bd = i, n, d
			}
		}
		selected = append(selected, cand[best])
		cand = append(cand[:best], cand[best+1:]...)
	}
	return selected
}

// worstOverlap is the candidate's largest overlap fraction against any
// already-selected entry, as a (numerator, denominator) pair.
func worstOverlap(e *Entry, selected []*Entry) (int, int) {
	bn, bd := 0, 1
	for _, s := range selected {
		n, d := overlapFrac(e.Seg, s.Seg)
		if n*bd > bn*d {
			bn, bd = n, d
		}
	}
	return bn, bd
}

// overlapFrac counts the ASes segment a shares with segment b, over the
// length of the shorter segment. Same-origin candidates always share at
// least the origin; the relative ordering is what matters.
func overlapFrac(a, b *segment.Segment) (num, den int) {
	common := 0
	for i := range a.ASEntries {
		for j := range b.ASEntries {
			if a.ASEntries[i].IA == b.ASEntries[j].IA {
				common++
				break
			}
		}
	}
	den = a.Len()
	if b.Len() < den {
		den = b.Len()
	}
	return common, den
}
