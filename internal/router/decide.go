package router

import (
	"sciera/internal/addr"
	"sciera/internal/scrypto"
	"sciera/internal/slayers"
	"sciera/internal/spath"
	"sciera/internal/telemetry"
)

// originKind classifies where a packet entered the router.
type originKind int

const (
	originInternal originKind = iota // AS-internal host or service
	originExternal                   // neighbor border router
	originSelf                       // generated by this router (SCMP)
)

// decision is what a packet's header says should happen to it. The
// zero scmp (Type 0) means the router owes nothing.
type decision struct {
	verdict telemetry.TraceVerdict
	// egress is the interface a Forwarded packet leaves on; on a drop,
	// the egress the path asked for (0 when it never got that far).
	egress uint16
	// hopIdx is the hop field the verdict was reached at.
	hopIdx uint8
	// alert: a router-alert hop was examined. Alert handling depends on
	// L4 content, so such a verdict is never shared with packets that
	// carry the same header.
	alert bool
	// answer: the router answers the packet itself (scmp is the
	// traceroute reply) and the verdict is not consulted.
	answer bool
	// scmp is the message the router owes the source: an error about
	// this packet, or the reply when answer is set.
	scmp slayers.SCMP
}

// packet is a reception as the router reads it: the wire bytes, a view
// of their path and the decoded L4. The rest of the header is read from
// raw where a rule needs it; no spath.Path is built.
type packet struct {
	raw  []byte
	hl   int // common + path header length
	path spath.View
	l4   slayers.Packet // UDP, SCMP and Payload (DecodeSameFlow); no Hdr
	self bool           // originated here: raw is scratch, not as received
}

// parse makes every check slayers.Packet.Decode makes — the common
// header, the path and the L4 with its checksum — reading raw in place.
func (p *packet) parse(raw []byte) error {
	hl, err := slayers.HeaderLen(raw)
	if err != nil {
		return err
	}
	if err := p.path.Init(raw[slayers.CmnHdrLen:hl]); err != nil {
		return err
	}
	p.raw, p.hl = raw, hl
	return p.l4.DecodeSameFlow(raw, hl)
}

// decide runs the forwarding rules on a parsed packet: ingress check on
// the first hop examined, hop-field MAC verification (peer-crossing or
// normal), segment crossover, the traceroute-answer rule and the
// last-hop rule. It reads the header bytes, the L4 and the path view,
// and advances only the view — the SegID accumulators, and the hop
// pointers across a crossover — so a packet's fate is a function of its
// header, the interface it arrived on and the hop key behind mac. A
// Forwarded verdict leaves the path on the hop that named the egress;
// the caller resolves that interface and moves to the next hop
// (Router.route).
func decide(pkt *packet, mac *scrypto.CMAC, local addr.IA, inIf uint16, origin originKind) decision {
	path := &pkt.path
	// Empty path: AS-local delivery only.
	if path.IsEmpty() {
		if slayers.DstIA(pkt.raw) == local && origin != originExternal {
			return decision{verdict: telemetry.VerdictDelivered}
		}
		return decision{verdict: telemetry.VerdictNoRoute}
	}

	var d decision
	for first := true; ; first = false {
		info, hop := path.Info(), path.Hop()
		d.hopIdx = path.CurrHF()
		d.alert = d.alert || hop.RouterAlert

		// Ingress check on the first hop examined. Self-originated
		// packets (SCMP replies on a mid-flight reversed path) skip it:
		// their first hop legitimately carries the interface the
		// original packet arrived on.
		if first {
			wantIn := spath.DataIngress(info, &hop)
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
			valid = spath.VerifyPeerHopWith(mac, info, &hop)
		} else {
			valid = spath.VerifyHopWith(mac, info, &hop)
		}
		if !valid {
			d.verdict = telemetry.VerdictMACFail
			d.scmp = slayers.SCMP{Type: slayers.SCMPParameterProblem, Pointer: uint16(d.hopIdx)}
			return d
		}

		// Traceroute: answer router-alert hops addressed to us.
		if scmp := pkt.l4.SCMP; hop.RouterAlert && scmp != nil && scmp.Type == slayers.SCMPTracerouteRequest {
			d.answer = true
			d.scmp = slayers.SCMP{
				Type:       slayers.SCMPTracerouteReply,
				Identifier: scmp.Identifier,
				SeqNo:      scmp.SeqNo,
				IA:         local,
				IfID:       uint64(spath.DataIngress(info, &hop)),
			}
			return d
		}

		egress := spath.DataEgress(info, &hop)
		if path.IsLastHop() {
			if egress == 0 && slayers.DstIA(pkt.raw) == local {
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
