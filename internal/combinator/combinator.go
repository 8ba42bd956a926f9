// Package combinator builds end-to-end forwarding paths from path
// segments, implementing SCION's segment-combination rules: up segments
// (traversed against construction direction), core segments (either
// direction), and down segments, joined at core ASes. The resulting
// paths carry full metadata — the globally unique interface sequence,
// latency, MTU, expiry — which powers the path policies the paper
// evaluates (shortest, fastest, most disjoint).
package combinator

import (
	"fmt"
	"sort"
	"strconv"
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

// direction describes how a segment is traversed in a combined path.
type direction struct {
	seg     *segment.Segment
	consDir bool
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
func Combine(src, dst addr.IA, ups, cores, downs []*segment.Segment) []*Path {
	if src == dst {
		return nil
	}
	var out []*Path
	seen := make(map[string]bool)
	add := func(p *Path) {
		if p != nil && !seen[p.Fingerprint] {
			seen[p.Fingerprint] = true
			out = append(out, p)
		}
	}

	// Filter inputs to the relevant endpoints and index core segments
	// by their endpoints (the combination loops below would otherwise
	// scan every core segment per up/down pair).
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
	coresByFirst := make(map[addr.IA][]*segment.Segment)
	coresByLast := make(map[addr.IA][]*segment.Segment)
	for _, c := range cores {
		coresByFirst[c.FirstIA()] = append(coresByFirst[c.FirstIA()], c)
		coresByLast[c.LastIA()] = append(coresByLast[c.LastIA()], c)
	}

	// Case 1: single-segment paths.
	for _, u := range srcUps {
		if u.FirstIA() == dst { // dst is the core origin of src's up segment
			add(build(src, dst, []direction{{u, false}}))
		}
	}
	for _, d := range dstDowns {
		if d.FirstIA() == src { // src is the core origin of dst's down segment
			add(build(src, dst, []direction{{d, true}}))
		}
	}
	for _, c := range coresByFirst[src] {
		if c.LastIA() == dst {
			add(build(src, dst, []direction{{c, true}}))
		}
	}
	for _, c := range coresByFirst[dst] {
		if c.LastIA() == src {
			add(build(src, dst, []direction{{c, false}}))
		}
	}

	// Case 2: up + down joined at a shared core AS.
	for _, u := range srcUps {
		for _, d := range dstDowns {
			if u.FirstIA() == d.FirstIA() {
				add(build(src, dst, []direction{{u, false}, {d, true}}))
			}
		}
	}

	// Case 3: up + core (dst is core).
	for _, u := range srcUps {
		for _, c := range coresByFirst[u.FirstIA()] {
			if c.LastIA() == dst {
				add(build(src, dst, []direction{{u, false}, {c, true}}))
			}
		}
		for _, c := range coresByLast[u.FirstIA()] {
			if c.FirstIA() == dst {
				add(build(src, dst, []direction{{u, false}, {c, false}}))
			}
		}
	}

	// Case 4: core + down (src is core).
	for _, d := range dstDowns {
		for _, c := range coresByFirst[src] {
			if c.LastIA() == d.FirstIA() {
				add(build(src, dst, []direction{{c, true}, {d, true}}))
			}
		}
		for _, c := range coresByLast[src] {
			if c.FirstIA() == d.FirstIA() {
				add(build(src, dst, []direction{{c, false}, {d, true}}))
			}
		}
	}

	// Case 5: up + core + down.
	for _, u := range srcUps {
		for _, d := range dstDowns {
			for _, c := range coresByFirst[u.FirstIA()] {
				if c.LastIA() == d.FirstIA() {
					add(build(src, dst, []direction{{u, false}, {c, true}, {d, true}}))
				}
			}
			for _, c := range coresByLast[u.FirstIA()] {
				if c.FirstIA() == d.FirstIA() {
					add(build(src, dst, []direction{{u, false}, {c, false}, {d, true}}))
				}
			}
		}
	}

	// Case 6+7: shortcuts and peering-link crossings between the
	// source's up segments and the destination's down segments.
	for _, u := range srcUps {
		for _, d := range dstDowns {
			for _, p := range shortcuts(src, dst, u, d) {
				add(p)
			}
			for _, p := range peerPaths(src, dst, u, d) {
				add(p)
			}
		}
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].NumHops() != out[j].NumHops() {
			return out[i].NumHops() < out[j].NumHops()
		}
		if out[i].LatencyMS != out[j].LatencyMS {
			return out[i].LatencyMS < out[j].LatencyMS
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// build assembles the data-plane path and metadata for an ordered list
// of segment traversals. It returns nil if the combination is not
// loop-free or structurally invalid.
func build(src, dst addr.IA, dirs []direction) *Path {
	p := &Path{Src: src, Dst: dst, MTU: ^uint16(0)}
	var raw spath.Path
	segIdx := 0
	visited := make(map[addr.IA]int) // AS -> count

	minExpiry := time.Time{}
	for _, d := range dirs {
		seg := d.seg
		if seg.Len() == 0 || segIdx >= 3 {
			return nil
		}
		entries := seg.ASEntries
		hops := seg.HopFields()
		n := len(entries)

		info := spath.InfoField{
			ConsDir:   d.consDir,
			Timestamp: seg.Timestamp,
		}
		if d.consDir {
			info.SegID = seg.Beta0
		} else {
			info.SegID = seg.BetaFinal()
		}
		raw.Infos = append(raw.Infos, info)
		raw.SegLens[segIdx] = uint8(n)
		segIdx++

		// Traversal order of entries.
		order := make([]int, n)
		for i := range order {
			if d.consDir {
				order[i] = i
			} else {
				order[i] = n - 1 - i
			}
		}
		for _, i := range order {
			raw.Hops = append(raw.Hops, hops[i])
		}

		// Metadata: walk entries in traversal order, recording inter-AS
		// crossings and loop checks.
		for step, i := range order {
			e := entries[i]
			visited[e.IA]++
			// Joint ASes legitimately appear in two adjacent segments.
			if visited[e.IA] > 2 {
				return nil
			}
			if e.MTU != 0 && e.MTU < p.MTU {
				p.MTU = e.MTU
			}
			// Record the link crossing leaving this AS (traversal order).
			if step == n-1 {
				continue // segment ends here; joint or destination
			}
			nextEntry := entries[order[step+1]]
			if d.consDir {
				// Crossing e -> nextEntry over e.Egress / next.Ingress.
				p.Interfaces = append(p.Interfaces,
					PathInterface{IA: e.IA, IfID: e.Egress},
					PathInterface{IA: nextEntry.IA, IfID: nextEntry.Ingress},
				)
				p.LatencyMS += e.LinkLatencyMS
			} else {
				// Reverse traversal: leave via our Ingress, arrive at
				// next's Egress.
				p.Interfaces = append(p.Interfaces,
					PathInterface{IA: e.IA, IfID: e.Ingress},
					PathInterface{IA: nextEntry.IA, IfID: nextEntry.Egress},
				)
				p.LatencyMS += nextEntry.LinkLatencyMS
			}
		}
		if exp := seg.Expiry(); minExpiry.IsZero() || exp.Before(minExpiry) {
			minExpiry = exp
		}
	}

	// Loop-freedom: every AS at most twice, and only joint ASes twice.
	// Joints are the first AS of each non-initial segment's traversal.
	joints := make(map[addr.IA]bool)
	for k := 1; k < len(dirs); k++ {
		d := dirs[k]
		if d.consDir {
			joints[d.seg.FirstIA()] = true
		} else {
			joints[d.seg.LastIA()] = true
		}
	}
	for ia, cnt := range visited {
		if cnt == 2 && !joints[ia] {
			return nil
		}
	}

	// Endpoint sanity.
	ases := asSequence(dirs)
	if len(ases) == 0 || ases[0] != src || ases[len(ases)-1] != dst {
		return nil
	}

	p.Expiry = minExpiry
	p.Raw = raw
	if err := p.Raw.Validate(); err != nil {
		return nil
	}
	p.Fingerprint = fingerprint(p.Interfaces)
	return p
}

// asSequence returns the AS traversal order with joints deduplicated.
func asSequence(dirs []direction) []addr.IA {
	var out []addr.IA
	for _, d := range dirs {
		n := d.seg.Len()
		for i := 0; i < n; i++ {
			idx := i
			if !d.consDir {
				idx = n - 1 - i
			}
			ia := d.seg.ASEntries[idx].IA
			if len(out) > 0 && out[len(out)-1] == ia {
				continue
			}
			out = append(out, ia)
		}
	}
	return out
}

// fingerprint renders the interface sequence as the path's identity
// string. The format is exactly the historical "<ia>#<ifid>>" chain —
// it is a tiebreak in Combine's sort order, so the bytes must stay
// stable — but built with a single allocation instead of fmt formatting
// and string concatenation per interface: this runs for every candidate
// path of every lookup in every campaign worker.
func fingerprint(ifs []PathInterface) string {
	if len(ifs) == 0 {
		return "direct"
	}
	b := make([]byte, 0, 24*len(ifs))
	for _, i := range ifs {
		b = i.IA.AppendTo(b)
		b = append(b, '#')
		b = strconv.AppendUint(b, uint64(i.IfID), 10)
		b = append(b, '>')
	}
	return string(b)
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
