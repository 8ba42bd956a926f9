package combinator

import (
	"sciera/internal/addr"
	"sciera/internal/segment"
	"sciera/internal/spath"
)

// Shortcut and peer-link combination (the "shortcuts and utilization of
// peering links" of Section 2): when the source's up segment and the
// destination's down segment share a non-core AS, the path crosses over
// there instead of climbing to the core; when two ASes on the segments
// share a peering link, the path crosses that link directly.

// shortcuts appends the crossover paths of one up/down segment pair to
// cands.
func shortcuts(cands []candidate, src, dst addr.IA, u, d *segment.Segment) []candidate {
	for iu := 1; iu < u.Len(); iu++ {
		x := u.ASEntries[iu].IA
		id := below(d, x)
		if id < 0 {
			continue
		}
		if x == src || x == dst {
			continue // degenerate: handled by single-segment cases
		}
		ut, err := u.TruncateFrom(iu)
		if err != nil {
			continue
		}
		dt, err := d.TruncateFrom(id)
		if err != nil {
			continue
		}
		cands = add(cands, src, dst, direction{ut, false}, direction{dt, true})
	}
	return cands
}

// peerPaths enumerates peering-link crossings for one up/down segment
// pair: an AS U on the up segment with an advertised peer link to an AS
// V on the down segment (both sides must advertise the link).
func peerPaths(src, dst addr.IA, u, d *segment.Segment) []*Path {
	var out []*Path
	for iu := 1; iu < u.Len(); iu++ {
		eU := &u.ASEntries[iu]
		for _, pe := range eU.Peers {
			iv := below(d, pe.Peer)
			if iv < 0 {
				continue
			}
			eV := &d.ASEntries[iv]
			// The far side must advertise the same circuit back.
			var peV *segment.PeerEntry
			for k := range eV.Peers {
				cand := &eV.Peers[k]
				if cand.Peer == eU.IA && cand.LocalIf == pe.PeerIf && cand.PeerIf == pe.LocalIf {
					peV = cand
					break
				}
			}
			if peV == nil {
				continue
			}
			if p := buildPeer(src, dst, u, iu, &pe, d, iv, peV); p != nil {
				out = append(out, p)
			}
		}
	}
	return out
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

// buildPeer assembles a two-segment peer path: the up segment truncated
// at U (reversed), crossing the peering link to V, then the down
// segment truncated at V. The boundary hops are replaced by the
// beacon-authorized peer hop fields; both info fields carry the Peer
// flag so routers apply the peer verification rule.
func buildPeer(src, dst addr.IA, u *segment.Segment, iu int, peU *segment.PeerEntry,
	d *segment.Segment, iv int, peV *segment.PeerEntry) *Path {

	ut, err := u.TruncateFrom(iu)
	if err != nil {
		return nil
	}
	dt, err := d.TruncateFrom(iv)
	if err != nil {
		return nil
	}
	nU, nV := ut.Len(), dt.Len()
	if nU > spath.MaxHopsPerSegment || nV > spath.MaxHopsPerSegment {
		return nil
	}

	// Loop freedom: no AS may appear on both sides.
	for _, e := range dt.ASEntries {
		if ut.ContainsIA(e.IA) {
			return nil
		}
	}

	p := &Path{Src: src, Dst: dst, MTU: ^uint16(0)}
	var raw spath.Path
	raw.SegLens = [3]uint8{uint8(nU), uint8(nV), 0}
	raw.Infos = make([]spath.InfoField, 0, 2)
	raw.Hops = make([]spath.HopField, 0, nU+nV)

	// Segment 1: up truncated, reversed, Peer-flagged. Initial SegID is
	// the accumulator after U's own entry (the value the peer hop's MAC
	// covers and the value the intermediate folds arrive at).
	raw.Infos = append(raw.Infos, spath.InfoField{
		ConsDir:   false,
		Peer:      true,
		SegID:     ut.BetaFinal(),
		Timestamp: ut.Timestamp,
	})
	// Segment 2: down truncated, Peer-flagged, starting after V's entry.
	raw.Infos = append(raw.Infos, spath.InfoField{
		ConsDir:   true,
		Peer:      true,
		SegID:     dt.BetaAfterFirst(),
		Timestamp: dt.Timestamp,
	})

	// Hops of segment 1 in traversal order (src .. U), with U's hop
	// replaced by the peer-crossing hop.
	for i := nU - 1; i >= 1; i-- {
		raw.Hops = append(raw.Hops, ut.HopField(i))
	}
	raw.Hops = append(raw.Hops, spath.HopField{
		ExpTime:     peU.ExpTime,
		ConsIngress: peU.LocalIf,
		ConsEgress:  ut.ASEntries[0].Egress,
		MAC:         peU.MAC,
	})
	// Hops of segment 2 (V .. dst), V's hop replaced likewise.
	raw.Hops = append(raw.Hops, spath.HopField{
		ExpTime:     peV.ExpTime,
		ConsIngress: peV.LocalIf,
		ConsEgress:  dt.ASEntries[0].Egress,
		MAC:         peV.MAC,
	})
	for i := 1; i < nV; i++ {
		raw.Hops = append(raw.Hops, dt.HopField(i))
	}
	if err := raw.Validate(); err != nil {
		return nil
	}
	p.Raw = raw

	// Metadata: crossings up to U, the peer link, crossings from V.
	p.Interfaces = make([]PathInterface, 0, 2*(nU+nV-1))
	for i := nU - 1; i >= 1; i-- {
		e := ut.ASEntries[i]
		prev := ut.ASEntries[i-1]
		p.Interfaces = append(p.Interfaces,
			PathInterface{IA: e.IA, IfID: e.Ingress},
			PathInterface{IA: prev.IA, IfID: prev.Egress},
		)
		p.LatencyMS += prev.LinkLatencyMS
		if e.MTU != 0 && e.MTU < p.MTU {
			p.MTU = e.MTU
		}
	}
	p.Interfaces = append(p.Interfaces,
		PathInterface{IA: ut.ASEntries[0].IA, IfID: peU.LocalIf},
		PathInterface{IA: dt.ASEntries[0].IA, IfID: peV.LocalIf},
	)
	p.LatencyMS += peU.LinkLatencyMS
	for i := 0; i < nV-1; i++ {
		e := dt.ASEntries[i]
		next := dt.ASEntries[i+1]
		p.Interfaces = append(p.Interfaces,
			PathInterface{IA: e.IA, IfID: e.Egress},
			PathInterface{IA: next.IA, IfID: next.Ingress},
		)
		p.LatencyMS += e.LinkLatencyMS
		if next.MTU != 0 && next.MTU < p.MTU {
			p.MTU = next.MTU
		}
	}
	for _, seg := range []*segment.Segment{ut, dt} {
		if exp := seg.Expiry(); p.Expiry.IsZero() || exp.Before(p.Expiry) {
			p.Expiry = exp
		}
	}
	p.Fingerprint = fingerprint(p.Interfaces)
	return p
}
