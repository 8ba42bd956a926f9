package router

import (
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

// TestDecideTable calls the forwarding rules directly — no router, no
// simulator: one row per verdict and per rule that picks between two.
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
			if got := decide(pkt, hopMAC(t, row.local), row.local, row.inIf, row.origin); got != row.want {
				t.Errorf("decide = %+v\n        want %+v", got, row.want)
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

// FuzzDecide holds the forwarding rules to three properties on
// arbitrary path bytes, deciding for A or B: decide never panics; two
// packets with one header and different L4 get the same verdict, egress
// and hop index unless a router-alert hop was examined; and once the
// hop decide starts at verifies, flipping any bit of its MAC or of its
// info field's SegID never yields Forwarded, Delivered or an answer.
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
			return decide(pkt, mac, local, inIf, org)
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
