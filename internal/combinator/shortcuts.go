package combinator

import (
	"sciera/internal/addr"
	"sciera/internal/segment"
)

// Shortcut and peer-link combination (the "shortcuts and utilization of
// peering links" of Section 2): when the source's up segment and the
// destination's down segment share a non-core AS, the path crosses over
// there instead of climbing to the core; when two ASes on the segments
// share a peering link, the path crosses that link directly. Either way
// both segments are traversed from the crossing AS on, and the
// candidate goes through add like any other.

// shortcuts appends the crossover candidates of one up/down segment
// pair to cands.
func shortcuts(cands []candidate, src, dst addr.IA, u, d *segment.Segment) []candidate {
	for iu := 1; iu < u.Len(); iu++ {
		x := u.ASEntries[iu].IA
		id := below(d, x)
		if id < 0 || x == src || x == dst {
			continue // none, or degenerate: handled by single-segment cases
		}
		cands = add(cands, src, dst, direction{seg: u, from: int32(iu)}, direction{seg: d, from: int32(id), consDir: true})
	}
	return cands
}

// peerings appends the peering-link crossings of one up/down segment
// pair to cands: an AS U on the up segment with an advertised peer link
// to an AS V on the down segment, which advertises the same circuit
// back.
func peerings(cands []candidate, src, dst addr.IA, u, d *segment.Segment) []candidate {
	for iu := 1; iu < u.Len(); iu++ {
		eU := &u.ASEntries[iu]
		for ku, pe := range eU.Peers {
			iv := below(d, pe.Peer)
			if iv < 0 {
				continue
			}
			for kv, back := range d.ASEntries[iv].Peers {
				if back.Peer == eU.IA && back.LocalIf == pe.PeerIf && back.PeerIf == pe.LocalIf {
					cands = add(cands, src, dst, direction{seg: u, from: int32(iu), peer: uint16(ku + 1)},
						direction{seg: d, from: int32(iv), peer: uint16(kv + 1), consDir: true})
					break
				}
			}
		}
	}
	return cands
}

// below returns the index of ia among the entries of d below its core
// origin, or -1.
func below(d *segment.Segment, ia addr.IA) int {
	for i := d.Len() - 1; i >= 1; i-- {
		if d.ASEntries[i].IA == ia {
			return i
		}
	}
	return -1
}
