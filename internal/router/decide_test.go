package router

import (
	"bytes"
	"testing"

	"sciera/internal/addr"
	"sciera/internal/scrypto"
	"sciera/internal/slayers"
	"sciera/internal/spath"
	"sciera/internal/telemetry"
)

var asX = addr.MustParseIA("71-3")

func hopMAC(t testing.TB, ia addr.IA) *scrypto.CMAC {
	t.Helper()
	m, err := scrypto.NewHopCMAC(key(ia))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// atHop advances p over its first n hops the way the routers of the
// ASes in keys would, leaving it as it arrives at hop n.
func atHop(t *testing.T, p spath.Path, keys ...addr.IA) spath.Path {
	t.Helper()
	for _, ia := range keys {
		info, _ := p.CurrentInfo()
		hop, _ := p.CurrentHop()
		if !spath.VerifyHop(key(ia), info, hop) {
			t.Fatalf("setup: hop %d does not verify under %v", p.CurrHF, ia)
		}
		if err := p.IncHop(); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// xoverPath is X -> A | A -> B: two construction-direction segments
// that meet in A, whose second hop field names the true egress.
func xoverPath(t *testing.T) spath.Path {
	t.Helper()
	up, upBetas, err := spath.BuildSegment(100, 7, []spath.HopSpec{
		{Key: key(asX), ConsIngress: 0, ConsEgress: 1, ExpTime: 63},
		{Key: key(asA), ConsIngress: 1, ConsEgress: 0, ExpTime: 63},
	})
	if err != nil {
		t.Fatal(err)
	}
	down, downBetas, err := spath.BuildSegment(100, 9, []spath.HopSpec{
		{Key: key(asA), ConsIngress: 0, ConsEgress: 2, ExpTime: 63},
		{Key: key(asB), ConsIngress: 1, ConsEgress: 0, ExpTime: 63},
	})
	if err != nil {
		t.Fatal(err)
	}
	return spath.Path{
		SegLens: [3]uint8{2, 2, 0},
		Infos: []spath.InfoField{
			{ConsDir: true, SegID: upBetas[0], Timestamp: 100},
			{ConsDir: true, SegID: downBetas[0], Timestamp: 100},
		},
		Hops: append(up, down...),
	}
}

// decideDecoded is the forwarding rules as the router ran them on a
// fully decoded packet, before it read packets in place; it stays as the
// oracle decide is held to (TestDecideTable, FuzzDecide). It reads and
// advances pkt's path state — the SegID accumulators, and the hop
// pointers across a crossover — and touches nothing else.
func decideDecoded(pkt *slayers.Packet, mac *scrypto.CMAC, local addr.IA, inIf uint16, origin originKind) decision {
	path := &pkt.Hdr.Path
	// Empty path: AS-local delivery only.
	if path.IsEmpty() {
		if pkt.Hdr.DstIA == local && origin != originExternal {
			return decision{verdict: telemetry.VerdictDelivered}
		}
		return decision{verdict: telemetry.VerdictNoRoute}
	}

	var d decision
	for first := true; ; first = false {
		info, err := path.CurrentInfo()
		if err != nil {
			return decision{verdict: telemetry.VerdictParseErr}
		}
		hop, err := path.CurrentHop()
		if err != nil {
			return decision{verdict: telemetry.VerdictParseErr}
		}
		d.hopIdx = uint8(path.CurrHF)
		d.alert = d.alert || hop.RouterAlert

		// Ingress check on the first hop examined. Self-originated
		// packets (SCMP replies on a mid-flight reversed path) skip it:
		// their first hop legitimately carries the interface the
		// original packet arrived on.
		if first {
			wantIn := spath.DataIngress(info, hop)
			if (origin == originExternal && wantIn != inIf) || (origin == originInternal && wantIn != 0) {
				d.verdict = telemetry.VerdictIngressDrop
				return d
			}
		}

		// MAC verification. Peer-crossing hops (the boundary hops of a
		// Peer-flagged segment) verify against the accumulator as-is;
		// normal hops run the fold/advance algebra.
		peerCross := info.Peer &&
			((info.ConsDir && path.IsFirstHopOfSegment()) ||
				(!info.ConsDir && path.IsLastHopOfSegment()))
		valid := false
		if peerCross {
			valid = spath.VerifyPeerHopWith(mac, info, hop)
		} else {
			valid = spath.VerifyHopWith(mac, info, hop)
		}
		if !valid {
			d.verdict = telemetry.VerdictMACFail
			d.scmp = slayers.SCMP{Type: slayers.SCMPParameterProblem, Pointer: uint16(path.CurrHF)}
			return d
		}

		// Traceroute: answer router-alert hops addressed to us.
		if hop.RouterAlert && pkt.SCMP != nil && pkt.SCMP.Type == slayers.SCMPTracerouteRequest {
			d.answer = true
			d.scmp = slayers.SCMP{
				Type:       slayers.SCMPTracerouteReply,
				Identifier: pkt.SCMP.Identifier,
				SeqNo:      pkt.SCMP.SeqNo,
				IA:         local,
				IfID:       uint64(spath.DataIngress(info, hop)),
			}
			return d
		}

		egress := spath.DataEgress(info, hop)
		if path.IsLastHop() {
			if egress == 0 && pkt.Hdr.DstIA == local {
				d.verdict = telemetry.VerdictDelivered
				return d
			}
			d.verdict, d.egress = telemetry.VerdictNoRoute, egress
			if egress == 0 {
				d.scmp = slayers.SCMP{Type: slayers.SCMPDestinationUnreachable, Code: slayers.CodeNoRoute}
			}
			return d
		}
		if path.IsLastHopOfSegment() && !(peerCross && egress != 0) {
			// Segment crossover (XOVER): the next segment's first hop
			// belongs to this AS too. This covers core joints (egress
			// 0) and non-core shortcuts, where the next hop decides the
			// true egress. A peer-crossing hop with an egress instead
			// forwards over the peering link: the far side of the link
			// starts the next segment.
			if err := path.IncHop(); err != nil {
				return decision{verdict: telemetry.VerdictParseErr}
			}
			continue
		}
		// A non-terminal, non-boundary hop without an egress is
		// malformed: NoRoute. Otherwise out of egress.
		d.verdict, d.egress = telemetry.VerdictForwarded, egress
		if egress == 0 {
			d.verdict = telemetry.VerdictNoRoute
		}
		return d
	}
}

// decideWire serializes pkt and decides it as the router does: parse,
// then decide. A packet that does not parse is a ParseErr.
func decideWire(t testing.TB, pkt *slayers.Packet, mac *scrypto.CMAC, local addr.IA, inIf uint16, origin originKind) (decision, *packet) {
	t.Helper()
	raw, err := pkt.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &packet{}
	if p.parse(raw) != nil {
		return decision{verdict: telemetry.VerdictParseErr}, p
	}
	return decide(p, mac, local, inIf, origin), p
}

// TestDecideTable calls the forwarding rules directly — no router, no
// simulator: one row per verdict and per rule that picks between two,
// each through decide on the wire bytes and through the decoded-packet
// oracle.
func TestDecideTable(t *testing.T) {
	udp := &slayers.UDP{SrcPort: 1, DstPort: 2}
	echo := &slayers.SCMP{Type: slayers.SCMPEchoRequest, Identifier: 5, SeqNo: 6}
	tr := &slayers.SCMP{Type: slayers.SCMPTracerouteRequest, Identifier: 5, SeqNo: 6}
	alerted := func(p spath.Path, hop int) spath.Path {
		p.Hops[hop].RouterAlert = true
		return p
	}
	tampered := func(p spath.Path) spath.Path {
		p.Hops[0].MAC[3] ^= 0x01
		return p
	}
	exhausted := func(p spath.Path) spath.Path {
		p.CurrHF = uint8(len(p.Hops))
		return p
	}
	egressAtLastHop := func(p spath.Path) spath.Path {
		// B's hop names an egress although the path ends there.
		hops, betas, err := spath.BuildSegment(100, 7, []spath.HopSpec{
			{Key: key(asA), ConsIngress: 0, ConsEgress: 1, ExpTime: 63},
			{Key: key(asB), ConsIngress: 1, ConsEgress: 4, ExpTime: 63},
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Hops, p.Infos[0].SegID = hops, betas[0]
		return p
	}
	midSegmentNoEgress := func() spath.Path {
		hops, betas, err := spath.BuildSegment(100, 7, []spath.HopSpec{
			{Key: key(asA), ConsIngress: 0, ConsEgress: 0, ExpTime: 63},
			{Key: key(asB), ConsIngress: 1, ConsEgress: 0, ExpTime: 63},
		})
		if err != nil {
			t.Fatal(err)
		}
		return spath.Path{
			SegLens: [3]uint8{2, 0, 0},
			Infos:   []spath.InfoField{{ConsDir: true, SegID: betas[0], Timestamp: 100}},
			Hops:    hops,
		}
	}

	noRoute := slayers.SCMP{Type: slayers.SCMPDestinationUnreachable, Code: slayers.CodeNoRoute}
	rows := []struct {
		name   string
		local  addr.IA
		dst    addr.IA
		path   spath.Path
		udp    *slayers.UDP
		scmp   *slayers.SCMP
		inIf   uint16
		origin originKind
		want   decision
	}{
		{name: "forwarded", local: asA, dst: asB, path: corePath(t), udp: udp, origin: originInternal,
			want: decision{verdict: telemetry.VerdictForwarded, egress: 1}},
		{name: "delivered", local: asB, dst: asB, path: atHop(t, corePath(t), asA), udp: udp, inIf: 1, origin: originExternal,
			want: decision{verdict: telemetry.VerdictDelivered, hopIdx: 1}},
		{name: "wrong ingress interface", local: asB, dst: asB, path: atHop(t, corePath(t), asA), udp: udp, inIf: 2, origin: originExternal,
			want: decision{verdict: telemetry.VerdictIngressDrop, hopIdx: 1}},
		{name: "internal origin, spoofed ingress", local: asB, dst: asB, path: atHop(t, corePath(t), asA), udp: udp, origin: originInternal,
			want: decision{verdict: telemetry.VerdictIngressDrop, hopIdx: 1}},
		{name: "self origin skips the ingress check", local: asB, dst: asB, path: atHop(t, corePath(t), asA), udp: udp, origin: originSelf,
			want: decision{verdict: telemetry.VerdictDelivered, hopIdx: 1}},
		{name: "tampered MAC", local: asA, dst: asB, path: tampered(corePath(t)), udp: udp, origin: originInternal,
			want: decision{verdict: telemetry.VerdictMACFail, scmp: slayers.SCMP{Type: slayers.SCMPParameterProblem}}},
		{name: "path ends in a foreign AS", local: asB, dst: asX, path: atHop(t, corePath(t), asA), udp: udp, inIf: 1, origin: originExternal,
			want: decision{verdict: telemetry.VerdictNoRoute, hopIdx: 1, scmp: noRoute}},
		{name: "last hop names an egress", local: asB, dst: asB, path: atHop(t, egressAtLastHop(corePath(t)), asA), udp: udp, inIf: 1, origin: originExternal,
			want: decision{verdict: telemetry.VerdictNoRoute, egress: 4, hopIdx: 1}},
		{name: "mid-segment hop without egress", local: asA, dst: asB, path: midSegmentNoEgress(), udp: udp, origin: originInternal,
			want: decision{verdict: telemetry.VerdictNoRoute}},
		{name: "hop pointer past the path", local: asA, dst: asB, path: exhausted(corePath(t)), udp: udp, origin: originInternal,
			want: decision{verdict: telemetry.VerdictParseErr}},
		{name: "peer-cross forwards over the peering link", local: asA, dst: asB, path: peerPath(t), udp: udp, origin: originInternal,
			want: decision{verdict: telemetry.VerdictForwarded, egress: 1}},
		{name: "peer-cross delivers on the far side", local: asB, dst: asB, path: atPeerFarSide(t), udp: udp, inIf: 1, origin: originExternal,
			want: decision{verdict: telemetry.VerdictDelivered, hopIdx: 1}},
		{name: "XOVER into the down segment's egress", local: asA, dst: asB, path: atHop(t, xoverPath(t), asX), udp: udp, inIf: 1, origin: originExternal,
			want: decision{verdict: telemetry.VerdictForwarded, egress: 2, hopIdx: 2}},
		{name: "router-alert echo is forwarded", local: asA, dst: asB, path: alerted(corePath(t), 0), scmp: echo, origin: originInternal,
			want: decision{verdict: telemetry.VerdictForwarded, egress: 1, alert: true}},
		{name: "router-alert traceroute is answered", local: asB, dst: asB, path: atHop(t, alerted(corePath(t), 1), asA), scmp: tr, inIf: 1, origin: originExternal,
			want: decision{hopIdx: 1, alert: true, answer: true, scmp: slayers.SCMP{
				Type: slayers.SCMPTracerouteReply, Identifier: 5, SeqNo: 6, IA: asB, IfID: 1}}},
		{name: "traceroute without the alert passes", local: asA, dst: asB, path: corePath(t), scmp: tr, origin: originInternal,
			want: decision{verdict: telemetry.VerdictForwarded, egress: 1}},
		{name: "empty path from inside", local: asA, dst: asA, udp: udp, origin: originInternal,
			want: decision{verdict: telemetry.VerdictDelivered}},
		{name: "empty path from outside", local: asA, dst: asA, udp: udp, inIf: 1, origin: originExternal,
			want: decision{verdict: telemetry.VerdictNoRoute}},
		{name: "empty path to another AS", local: asA, dst: asB, udp: udp, origin: originInternal,
			want: decision{verdict: telemetry.VerdictNoRoute}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			pkt := &slayers.Packet{
				Hdr:  slayers.SCION{DstIA: row.dst, SrcIA: asX, Path: *row.path.Copy()},
				UDP:  row.udp,
				SCMP: row.scmp,
			}
			if got, _ := decideWire(t, pkt, hopMAC(t, row.local), row.local, row.inIf, row.origin); got != row.want {
				t.Errorf("decide = %+v\n        want %+v", got, row.want)
			}
			if got := decideDecoded(pkt, hopMAC(t, row.local), row.local, row.inIf, row.origin); got != row.want {
				t.Errorf("decideDecoded = %+v\n        want %+v", got, row.want)
			}
		})
	}
}

// atPeerFarSide is peerPath as it arrives in B: A forwards a
// peer-crossing hop without advancing the accumulator.
func atPeerFarSide(t *testing.T) spath.Path {
	t.Helper()
	p := peerPath(t)
	if err := p.IncHop(); err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzDecide holds the forwarding rules to four properties on
// arbitrary path bytes, deciding for A or B: decide never panics; two
// packets with one header and different L4 get the same verdict, egress
// and hop index unless a router-alert hop was examined; once the hop
// decide starts at verifies, flipping any bit of its MAC or of its info
// field's SegID never yields Forwarded, Delivered or an answer; and
// decide, reading the path bytes as received through a view, reaches
// the decoded-packet oracle's decision, and on Forwarded patches the
// bytes the oracle's IncHop and patch write.
func FuzzDecide(f *testing.F) {
	macA, macB := hopMAC(f, asA), hopMAC(f, asB)
	f.Fuzz(func(t *testing.T, raw []byte, atB, dstB bool, inIf uint16, origin uint8) {
		var path spath.Path
		if err := path.DecodeFromBytes(raw); err != nil {
			return
		}
		local, mac, dst := asA, macA, asA
		if atB {
			local, mac = asB, macB
		}
		if dstB {
			dst = asB
		}
		org := originKind(origin % 3)
		run := func(p *spath.Path, udp *slayers.UDP, scmp *slayers.SCMP) decision {
			pkt := &slayers.Packet{Hdr: slayers.SCION{DstIA: dst, SrcIA: asX, Path: *p.Copy()}, UDP: udp, SCMP: scmp}
			d, _ := decideWire(t, pkt, mac, local, inIf, org)
			return d
		}
		for _, scmp := range []*slayers.SCMP{nil, {Type: slayers.SCMPTracerouteRequest, Identifier: 1}} {
			oracle := &slayers.Packet{Hdr: slayers.SCION{DstIA: dst, SrcIA: asX, Path: *path.Copy()}, SCMP: scmp}
			if scmp == nil {
				oracle.UDP = &slayers.UDP{SrcPort: 1, DstPort: 2}
			}
			wire, err := oracle.Serialize(nil)
			if err != nil {
				t.Fatal(err)
			}
			copy(wire[slayers.CmnHdrLen:], raw) // the path bytes as received
			var p packet
			if err := p.parse(wire); err != nil {
				t.Fatalf("parse of a path DecodeFromBytes accepts: %v", err)
			}
			want := bytes.Clone(wire)
			got, exp := decide(&p, mac, local, inIf, org), decideDecoded(oracle, mac, local, inIf, org)
			if got != exp {
				t.Fatalf("decide = %+v, oracle %+v", got, exp)
			}
			if got.verdict != telemetry.VerdictForwarded || got.answer {
				continue
			}
			if errV, errP := p.path.IncHop(), oracle.Hdr.Path.IncHop(); errV != nil || errP != nil {
				t.Fatalf("IncHop after Forwarded: view %v, oracle %v", errV, errP)
			}
			// The oracle's patch: its meta word and info fields
			// serialized over the bytes as received.
			p.path.Patch()
			full := make([]byte, oracle.Hdr.Path.Len())
			if err := oracle.Hdr.Path.SerializeTo(full); err != nil {
				t.Fatal(err)
			}
			copy(want[slayers.CmnHdrLen:], full[:spath.MetaLen+len(oracle.Hdr.Path.Infos)*spath.InfoLen])
			if !bytes.Equal(wire, want) {
				t.Fatalf("forwarded bytes %x\n        oracle's %x", wire, want)
			}
		}
		d := run(&path, &slayers.UDP{SrcPort: 1, DstPort: 2}, nil)
		tr := run(&path, nil, &slayers.SCMP{Type: slayers.SCMPTracerouteRequest, Identifier: 1})
		if !d.alert && !tr.alert && (d.verdict != tr.verdict || d.egress != tr.egress || d.hopIdx != tr.hopIdx) {
			t.Fatalf("one header, two verdicts: UDP %+v, traceroute %+v", d, tr)
		}
		if path.IsEmpty() || (d.verdict != telemetry.VerdictForwarded && d.verdict != telemetry.VerdictDelivered) {
			return
		}
		passes := func(p *spath.Path) bool {
			got := run(p, &slayers.UDP{SrcPort: 1, DstPort: 2}, nil)
			return got.answer || got.verdict == telemetry.VerdictForwarded || got.verdict == telemetry.VerdictDelivered
		}
		for bit := 0; bit < 8*scrypto.HopMACLen; bit++ {
			p := path.Copy()
			p.Hops[p.CurrHF].MAC[bit/8] ^= 1 << (bit % 8)
			if passes(p) {
				t.Fatalf("hop %d passes with MAC bit %d flipped", p.CurrHF, bit)
			}
		}
		for bit := 0; bit < 16; bit++ {
			p := path.Copy()
			p.Infos[p.CurrINF].SegID ^= 1 << bit
			if passes(p) {
				t.Fatalf("hop %d passes with SegID bit %d flipped", p.CurrHF, bit)
			}
		}
	})
}
