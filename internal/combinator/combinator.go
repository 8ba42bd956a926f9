// Package combinator builds end-to-end forwarding paths from path
// segments, implementing SCION's segment-combination rules: up segments
// (traversed against construction direction), core segments (either
// direction), and down segments, joined at core ASes. The resulting
// paths carry full metadata — the globally unique interface sequence,
// latency, MTU, expiry — which powers the path policies the paper
// evaluates (shortest, fastest, most disjoint).
package combinator

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"sciera/internal/addr"
	"sciera/internal/scrypto"
	"sciera/internal/segment"
	"sciera/internal/spath"
)

// PathInterface is one (AS, interface) crossing of a path. Combining
// the AS-unique interface ID with the ISD-AS number yields the globally
// unique interface identifiers the paper uses to compute disjointness.
type PathInterface struct {
	IA   addr.IA
	IfID uint16
}

func (p PathInterface) String() string { return fmt.Sprintf("%v#%d", p.IA, p.IfID) }

// Path is a combined end-to-end path with metadata.
type Path struct {
	Src, Dst addr.IA
	// Raw is the data-plane path, ready for a packet header (pointers
	// at the first hop).
	Raw spath.Path
	// Interfaces lists the inter-AS crossings in traversal order:
	// (egress of AS i, ingress of AS i+1), ...
	Interfaces []PathInterface
	// LatencyMS is the one-way propagation latency estimate.
	LatencyMS float64
	MTU       uint16
	Expiry    time.Time
	// Fingerprint identifies the path by its interface sequence.
	Fingerprint string
}

// NumHops returns the AS-level hop count (number of inter-AS links).
func (p *Path) NumHops() int { return len(p.Interfaces) / 2 }

// ASes returns the AS sequence in traversal order.
func (p *Path) ASes() []addr.IA {
	if len(p.Interfaces) == 0 {
		return []addr.IA{p.Src}
	}
	out := []addr.IA{p.Interfaces[0].IA}
	for i := 1; i < len(p.Interfaces); i += 2 {
		out = append(out, p.Interfaces[i].IA)
	}
	return out
}

// Disjointness returns the fraction of globally unique interfaces NOT
// shared between p and q (1 = fully disjoint), the Section 5.5 metric:
// distinct interfaces divided by total interfaces of both paths.
func Disjointness(p, q *Path) float64 {
	total := len(p.Interfaces) + len(q.Interfaces)
	if total == 0 {
		return 1
	}
	// A path has a handful of interfaces: comparing the two slices
	// directly beats building a set, and allocates nothing.
	shared := 0
	for _, i := range q.Interfaces {
		for _, j := range p.Interfaces {
			if i == j {
				shared++
				break
			}
		}
	}
	// Interfaces shared appear in both paths: count both occurrences.
	distinct := total - 2*shared
	return float64(distinct) / float64(total)
}

// DiverseSubset picks up to n mutually diverse paths greedily: the first
// path, then each time the path whose least Disjointness from those
// already chosen is largest (the earliest wins a tie). A fingerprint is
// chosen at most once.
func DiverseSubset(paths []*Path, n int) []*Path {
	if len(paths) == 0 {
		return nil
	}
	chosen := []*Path{paths[0]}
	for len(chosen) < n {
		bestIdx, bestScore := -1, -1.0
		for i, p := range paths {
			used := false
			for _, c := range chosen {
				if c.Fingerprint == p.Fingerprint {
					used = true
					break
				}
			}
			if used {
				continue
			}
			minDis := 2.0
			for _, c := range chosen {
				if d := Disjointness(p, c); d < minDis {
					minDis = d
				}
			}
			if minDis > bestScore {
				bestScore, bestIdx = minDis, i
			}
		}
		if bestIdx < 0 {
			break
		}
		chosen = append(chosen, paths[bestIdx])
	}
	return chosen
}

// direction describes how a segment is traversed in a combined path:
// its entries from index from on, in construction order or against it.
// A shortcut or peering crossing starts below the segment's origin; a
// peering direction also crosses the peer-th link (counted from one)
// that its entry at from advertises, instead of taking that entry's
// regular hop.
type direction struct {
	seg     *segment.Segment
	from    int32
	peer    uint16
	consDir bool
}

// len returns the number of AS entries d traverses.
func (d direction) len() int { return d.seg.Len() - int(d.from) }

// entry returns the index of the AS entry at the given step of d's
// traversal.
func (d direction) entry(step int) int {
	if d.consDir {
		return int(d.from) + step
	}
	return d.seg.Len() - 1 - step
}

// peerEntry returns the peering link d crosses, or nil.
func (d direction) peerEntry() *segment.PeerEntry {
	if d.peer == 0 {
		return nil
	}
	return &d.seg.ASEntries[d.from].Peers[d.peer-1]
}

// Combine enumerates the loop-free end-to-end paths from src to dst
// using the supplied segments:
//
//	ups:   segments with LastIA == src (traversed in reverse, toward core)
//	cores: segments between core ASes (either direction)
//	downs: segments with LastIA == dst (traversed from core to dst)
//
// Any of the groups may be empty: core-to-core paths need only cores,
// paths within one provider tree need only up+down, etc. The result is
// deduplicated by fingerprint and sorted by (hops, latency, fingerprint).
// Callers pass the segments a lookup selected (beacon.Registry.Lookup),
// so a scan of cores per up/down pair is short.
func Combine(src, dst addr.IA, ups, cores, downs []*segment.Segment) []*Path {
	return Recombine(nil, src, dst, ups, cores, downs)
}

// Recombine is Combine for a pair whose previous path set was prev: a
// path of prev that Combine would build again, field for field, is
// returned as it is instead of built anew. After a link event most of a
// pair's paths still run over the same segments, so recombining costs
// what the event changed.
func Recombine(prev []*Path, src, dst addr.IA, ups, cores, downs []*segment.Segment) []*Path {
	if src == dst {
		return nil
	}
	// The candidates of a lookup fit on the stack.
	var stack [64]candidate
	cands := stack[:0]
	var srcUps []*segment.Segment
	for _, u := range ups {
		if u.LastIA() == src {
			srcUps = append(srcUps, u)
		}
	}
	var dstDowns []*segment.Segment
	for _, d := range downs {
		if d.LastIA() == dst {
			dstDowns = append(dstDowns, d)
		}
	}

	// Case 1: single-segment paths.
	for _, u := range srcUps {
		if u.FirstIA() == dst { // dst is the core origin of src's up segment
			cands = add(cands, src, dst, direction{seg: u})
		}
	}
	for _, d := range dstDowns {
		if d.FirstIA() == src { // src is the core origin of dst's down segment
			cands = add(cands, src, dst, direction{seg: d, consDir: true})
		}
	}
	for _, k := range cores {
		if k.FirstIA() == src && k.LastIA() == dst {
			cands = add(cands, src, dst, direction{seg: k, consDir: true})
		}
	}
	for _, k := range cores {
		if k.FirstIA() == dst && k.LastIA() == src {
			cands = add(cands, src, dst, direction{seg: k})
		}
	}

	// Case 2: up + down joined at a shared core AS.
	for _, u := range srcUps {
		for _, d := range dstDowns {
			if u.FirstIA() == d.FirstIA() {
				cands = add(cands, src, dst, direction{seg: u}, direction{seg: d, consDir: true})
			}
		}
	}

	// Case 3: up + core (dst is core).
	for _, u := range srcUps {
		for _, k := range cores {
			if k.FirstIA() == u.FirstIA() && k.LastIA() == dst {
				cands = add(cands, src, dst, direction{seg: u}, direction{seg: k, consDir: true})
			}
		}
		for _, k := range cores {
			if k.LastIA() == u.FirstIA() && k.FirstIA() == dst {
				cands = add(cands, src, dst, direction{seg: u}, direction{seg: k})
			}
		}
	}

	// Case 4: core + down (src is core).
	for _, d := range dstDowns {
		for _, k := range cores {
			if k.FirstIA() == src && k.LastIA() == d.FirstIA() {
				cands = add(cands, src, dst, direction{seg: k, consDir: true}, direction{seg: d, consDir: true})
			}
		}
		for _, k := range cores {
			if k.LastIA() == src && k.FirstIA() == d.FirstIA() {
				cands = add(cands, src, dst, direction{seg: k}, direction{seg: d, consDir: true})
			}
		}
	}

	// Case 5: up + core + down.
	for _, u := range srcUps {
		for _, d := range dstDowns {
			for _, k := range cores {
				if k.FirstIA() == u.FirstIA() && k.LastIA() == d.FirstIA() {
					cands = add(cands, src, dst, direction{seg: u}, direction{seg: k, consDir: true}, direction{seg: d, consDir: true})
				}
			}
			for _, k := range cores {
				if k.LastIA() == u.FirstIA() && k.FirstIA() == d.FirstIA() {
					cands = add(cands, src, dst, direction{seg: u}, direction{seg: k}, direction{seg: d, consDir: true})
				}
			}
		}
	}

	// Case 6+7: shortcuts and peering-link crossings between the
	// source's up segments and the destination's down segments.
	for _, u := range srcUps {
		for _, d := range dstDowns {
			cands = shortcuts(cands, src, dst, u, d)
			cands = peerings(cands, src, dst, u, d)
		}
	}
	return build(prev, src, dst, cands)
}

// candidate is a checked segment traversal with its hop count. fp
// delimits its fingerprint in the bytes build renders them to.
type candidate struct {
	dirs    [3]direction
	n, hops int32
	fp      [2]int32
	dup     bool
}

// add appends dirs to cands when they form a loop-free traversal from
// src to dst.
func add(cands []candidate, src, dst addr.IA, dirs ...direction) []candidate {
	hops, ok := check(src, dst, dirs)
	if !ok {
		return cands
	}
	cand := candidate{n: int32(len(dirs)), hops: int32(hops)}
	copy(cand.dirs[:], dirs)
	return append(cands, cand)
}

// build assembles one Combine call's candidates, keeps the first of each
// fingerprint and sorts them. The fingerprint of every candidate comes
// first, in scratch space, so a duplicate is dropped before anything of
// it is allocated; a kept one is assembled in scratch too, and taken
// from prev when a path there is the same in every field. A path built
// anew takes four allocations — itself with its info fields, its hop
// fields, interfaces and fingerprint — and shares none with another, so
// a caller that holds on to one path holds only that.
func build(prev []*Path, src, dst addr.IA, cands []candidate) []*Path {
	var buf [8 << 10]byte
	fps := buf[:0]
	// Scratch to assemble one path in; a kept path's expiry carries a
	// pointer out of it, which puts it on the heap, once per call.
	sc := new(struct {
		ifs   [128]PathInterface
		hops  [64]spath.HopField
		infos [3]spath.InfoField
	})
	for i := range cands {
		cand := &cands[i]
		cand.fp[0] = int32(len(fps))
		fps = appendFingerprint(fps, appendInterfaces(sc.ifs[:0], cand.dirs[:cand.n]))
		cand.fp[1] = int32(len(fps))
	}
	fp := func(i int) []byte { return fps[cands[i].fp[0]:cands[i].fp[1]] }

	// Of each fingerprint, the first candidate in enumeration order: a
	// stable sort puts it first among its equals.
	var stack [64]int
	byFP := stack[:0]
	for i := range cands {
		byFP = append(byFP, i)
	}
	slices.SortStableFunc(byFP, func(i, j int) int { return bytes.Compare(fp(i), fp(j)) })
	for k := 1; k < len(byFP); k++ {
		cands[byFP[k]].dup = bytes.Equal(fp(byFP[k]), fp(byFP[k-1]))
	}

	out := make([]*Path, 0, len(cands))
	for i := range cands {
		cand := &cands[i]
		if cand.dup {
			continue
		}
		dirs, h := cand.dirs[:cand.n], int(cand.hops)
		hops := sc.hops[:0]
		if h > len(sc.hops) {
			hops = make([]spath.HopField, 0, h)
		}
		q := fill(src, dst, dirs, sc.infos[:len(dirs):len(dirs)], hops[:h], appendInterfaces(sc.ifs[:0], dirs))
		if j := slices.IndexFunc(prev, func(p *Path) bool { return p.Fingerprint == string(fp(i)) }); j >= 0 && same(&q, prev[j]) {
			out = append(out, prev[j])
			continue
		}
		p := &block{infos: sc.infos}
		p.Path = Path{Src: src, Dst: dst, LatencyMS: q.LatencyMS, MTU: q.MTU, Expiry: q.Expiry,
			Raw:        spath.Path{SegLens: q.Raw.SegLens, Infos: p.infos[:len(dirs):len(dirs)], Hops: slices.Clone(q.Raw.Hops)},
			Interfaces: slices.Clone(q.Interfaces), Fingerprint: string(fp(i))}
		out = append(out, &p.Path)
	}
	slices.SortFunc(out, func(a, b *Path) int {
		if a.NumHops() != b.NumHops() {
			return a.NumHops() - b.NumHops()
		}
		if a.LatencyMS != b.LatencyMS {
			return cmp.Compare(a.LatencyMS, b.LatencyMS)
		}
		return strings.Compare(a.Fingerprint, b.Fingerprint)
	})
	return out
}

// block is a combined path allocated with its info fields, one per
// segment.
type block struct {
	Path
	infos [3]spath.InfoField
}

// same reports whether q, as fill left it (fingerprint aside), is p in
// every field.
func same(q, p *Path) bool {
	return q.Src == p.Src && q.Dst == p.Dst && q.LatencyMS == p.LatencyMS && q.MTU == p.MTU &&
		q.Expiry == p.Expiry && q.Raw.CurrINF == p.Raw.CurrINF && q.Raw.CurrHF == p.Raw.CurrHF &&
		q.Raw.SegLens == p.Raw.SegLens && slices.Equal(q.Raw.Infos, p.Raw.Infos) &&
		slices.Equal(q.Raw.Hops, p.Raw.Hops) && slices.Equal(q.Interfaces, p.Interfaces)
}

// check reports whether dirs traverse from src to dst without a loop —
// every AS at most twice, and only a joint, the first AS of a
// non-initial segment's traversal, twice (the far side of a peering
// crossing is no joint) — in segments a path header can carry, and
// returns their hop count. A path has a few dozen ASes at most, so it
// counts in place.
func check(src, dst addr.IA, dirs []direction) (hops int, ok bool) {
	if len(dirs) > 3 {
		return 0, false
	}
	// The ASes in traversal order; a joint appears once in each of the
	// two segments it joins.
	var stack [32]addr.IA
	seq := stack[:0]
	for _, d := range dirs {
		n := d.len()
		if n <= 0 || n > spath.MaxHopsPerSegment {
			return 0, false
		}
		hops += n
		for step := range n {
			seq = append(seq, d.seg.ASEntries[d.entry(step)].IA)
		}
	}
	if seq[0] != src || seq[len(seq)-1] != dst {
		return 0, false
	}
	for i, ia := range seq {
		visits := 1
		for _, other := range seq[i+1:] {
			if other == ia {
				visits++
			}
		}
		if visits == 1 || slices.Contains(seq[:i], ia) {
			continue // once, or counted at its first visit
		}
		joint := false
		for _, d := range dirs[1:] {
			joint = joint || d.peer == 0 && d.seg.ASEntries[d.entry(0)].IA == ia
		}
		if visits > 2 || !joint {
			return 0, false
		}
	}
	return hops, true
}

// appendInterfaces appends the inter-AS crossings of dirs to ifs, in
// traversal order: (egress of one AS, ingress of the next) each. A
// peering crossing is the last crossing of the direction that leaves
// over it.
func appendInterfaces(ifs []PathInterface, dirs []direction) []PathInterface {
	for _, d := range dirs {
		for step := range d.len() - 1 {
			e, next := &d.seg.ASEntries[d.entry(step)], &d.seg.ASEntries[d.entry(step+1)]
			if d.consDir {
				// Crossing e -> next over e.Egress / next.Ingress.
				ifs = append(ifs, PathInterface{IA: e.IA, IfID: e.Egress}, PathInterface{IA: next.IA, IfID: next.Ingress})
			} else {
				// Reverse traversal: leave via our Ingress, arrive at
				// next's Egress.
				ifs = append(ifs, PathInterface{IA: e.IA, IfID: e.Ingress}, PathInterface{IA: next.IA, IfID: next.Egress})
			}
		}
		if pe := d.peerEntry(); pe != nil && !d.consDir {
			ifs = append(ifs, PathInterface{IA: d.seg.ASEntries[d.from].IA, IfID: pe.LocalIf}, PathInterface{IA: pe.Peer, IfID: pe.PeerIf})
		}
	}
	return ifs
}

// fill assembles the data-plane path and metadata of checked dirs, over
// info and hop field slices of exactly their size and the interfaces
// already written (none: a path within one AS). A direction's SegID is
// the accumulator where its traversal starts: before entry from in
// construction direction, or after it past a peering crossing (the
// peer hop replaces that entry's own, and its MAC is outside the
// chain), and at the segment's end against it. A path's MTU is the
// least over the ASes it traverses, and its expiry the earliest over
// their entries.
func fill(src, dst addr.IA, dirs []direction, infos []spath.InfoField, hops []spath.HopField, ifs []PathInterface) Path {
	p := Path{Src: src, Dst: dst, MTU: ^uint16(0), Raw: spath.Path{Infos: infos, Hops: hops}}
	if len(ifs) > 0 {
		p.Interfaces = ifs
	}
	h := 0
	for k, d := range dirs {
		seg, pe := d.seg, d.peerEntry()
		n := d.len()
		infos[k] = spath.InfoField{ConsDir: d.consDir, Peer: pe != nil, Timestamp: seg.Timestamp}
		switch {
		case !d.consDir:
			infos[k].SegID = seg.BetaFinal()
		case pe != nil:
			infos[k].SegID = seg.BetaAt(int(d.from) + 1)
		default:
			infos[k].SegID = seg.BetaAt(int(d.from))
		}
		p.Raw.SegLens[k] = uint8(n)
		for step := range n {
			i := d.entry(step)
			e := &seg.ASEntries[i]
			if pe != nil && i == int(d.from) {
				hops[h] = spath.HopField{ExpTime: pe.ExpTime, ConsIngress: pe.LocalIf, ConsEgress: e.Egress, MAC: pe.MAC}
			} else {
				hops[h] = seg.HopField(i)
			}
			h++
			if e.MTU != 0 && e.MTU < p.MTU {
				p.MTU = e.MTU
			}
			// The link leaving e, in traversal order: its latency is on
			// the entry that egresses onto it in construction order.
			switch {
			case step < n-1 && d.consDir:
				p.LatencyMS += e.LinkLatencyMS
			case step < n-1:
				p.LatencyMS += seg.ASEntries[d.entry(step+1)].LinkLatencyMS
			case pe != nil && !d.consDir: // the peering link
				p.LatencyMS += pe.LinkLatencyMS
			}
		}
		if exp := seg.ExpiryFrom(int(d.from)); p.Expiry.IsZero() || exp.Before(p.Expiry) {
			p.Expiry = exp
		}
	}
	return p
}

// fingerprint renders the interface sequence as the path's identity
// string. The format is exactly the historical "<ia>#<ifid>>" chain —
// it is a tiebreak in Combine's sort order, so the bytes must stay
// stable — but appended to a buffer instead of fmt formatting and
// string concatenation per interface: Combine renders every fingerprint
// of a call into one buffer and one string.
func fingerprint(ifs []PathInterface) string {
	return string(appendFingerprint(make([]byte, 0, 24*len(ifs)), ifs))
}

func appendFingerprint(b []byte, ifs []PathInterface) []byte {
	if len(ifs) == 0 {
		return append(b, "direct"...)
	}
	for _, i := range ifs {
		b = i.IA.AppendTo(b)
		b = append(b, '#')
		b = strconv.AppendUint(b, uint64(i.IfID), 10)
		b = append(b, '>')
	}
	return b
}

// Reversed returns the same path usable from dst back to src (hop fields
// reversed, directions flipped).
//
// Reversing a *fresh* path must also move each info field's accumulator
// to the segment's far end: a fresh path carries the near-end beta, but
// the reversed traversal starts at the other end. (Reversing a path
// extracted from a *received* packet skips this step — the routers
// already advanced the accumulators in flight; see router.ReversePacketPath.)
func (p *Path) Reversed() (*Path, error) {
	q := &Path{
		Src:       p.Dst,
		Dst:       p.Src,
		LatencyMS: p.LatencyMS,
		MTU:       p.MTU,
		Expiry:    p.Expiry,
	}
	raw := *p.Raw.Copy()
	// Advance each segment's accumulator to its far end before
	// reversing: beta_far = beta_near XOR (xor of all hop MAC prefixes).
	// Peer segments exclude the peer-crossing boundary hop: its MAC is
	// not part of the segment's accumulator chain (it replaced the
	// crossover AS's regular hop) and is verified as-is in both
	// traversal directions.
	hopIdx := 0
	for s := 0; s < len(raw.Infos); s++ {
		n := int(raw.SegLens[s])
		for i := 0; i < n; i++ {
			peerBoundary := raw.Infos[s].Peer &&
				((raw.Infos[s].ConsDir && i == 0) || (!raw.Infos[s].ConsDir && i == n-1))
			if !peerBoundary {
				raw.Infos[s].SegID = scrypto.UpdateBeta(raw.Infos[s].SegID, raw.Hops[hopIdx].MAC)
			}
			hopIdx++
		}
	}
	if err := raw.Reverse(); err != nil {
		return nil, err
	}
	q.Raw = raw
	q.Interfaces = make([]PathInterface, len(p.Interfaces))
	for i, itf := range p.Interfaces {
		q.Interfaces[len(p.Interfaces)-1-i] = itf
	}
	q.Fingerprint = fingerprint(q.Interfaces)
	return q, nil
}
