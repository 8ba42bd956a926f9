package router

import (
	"net/netip"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/scrypto"
	"sciera/internal/simnet"
	"sciera/internal/slayers"
	"sciera/internal/spath"
)

var (
	asA = addr.MustParseIA("71-1")
	asB = addr.MustParseIA("71-2")
)

func key(ia addr.IA) scrypto.HopKey { return scrypto.DeriveHopKey([]byte(ia.String()), 0) }

// twoAS wires A#1 <-> B#1 directly and returns both routers.
func twoAS(t *testing.T, sim *simnet.Sim, useDispatcher bool) (*Router, *Router) {
	t.Helper()
	ra, err := New(Config{IA: asA, Key: key(asA), Net: sim, UseDispatcher: useDispatcher})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := New(Config{IA: asB, Key: key(asB), Net: sim, UseDispatcher: useDispatcher})
	if err != nil {
		t.Fatal(err)
	}
	aAddr, err := ra.AddInterface(1)
	if err != nil {
		t.Fatal(err)
	}
	bAddr, err := rb.AddInterface(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.ConnectInterface(1, bAddr); err != nil {
		t.Fatal(err)
	}
	if err := rb.ConnectInterface(1, aAddr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { checkConserved(t, ra); checkConserved(t, rb) })
	return ra, rb
}

// checkConserved holds a router to its conservation identity: every
// packet it took in or originated ended in exactly one outcome counter.
func checkConserved(t *testing.T, r *Router) {
	t.Helper()
	m := r.Metrics()
	in := m.Received.Load() + m.SCMPSent.Load()
	out := m.Forwarded.Load() + m.Delivered.Load() + m.Answered.Load() +
		m.MACFailures.Load() + m.IngressDrops.Load() + m.NoRouteDrops.Load() +
		m.LinkDownDrops.Load() + m.ParseFailures.Load()
	if in != out {
		t.Errorf("router %v: %d packets in (received %d + originated %d), %d accounted for",
			r.IA(), in, m.Received.Load(), m.SCMPSent.Load(), out)
	}
}

// corePath builds a one-segment core path A -> B with valid MACs.
func corePath(t *testing.T) spath.Path {
	t.Helper()
	hops, betas, err := spath.BuildSegment(100, 7, []spath.HopSpec{
		{Key: key(asA), ConsIngress: 0, ConsEgress: 1, ExpTime: 63},
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

type capture struct {
	conn simnet.Conn
	pkts []*slayers.Packet
}

func listen(t *testing.T, sim *simnet.Sim, at netip.AddrPort) *capture {
	t.Helper()
	c := &capture{}
	conn, err := sim.Listen(at, func(pkt []byte, from netip.AddrPort) {
		var p slayers.Packet
		if err := p.Decode(pkt); err != nil {
			t.Errorf("capture decode: %v", err)
			return
		}
		cp := p
		cp.Payload = append([]byte(nil), p.Payload...)
		c.pkts = append(c.pkts, &cp)
	})
	if err != nil {
		t.Fatal(err)
	}
	c.conn = conn
	return c
}

func TestForwardAndDeliver(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	ra, rb := twoAS(t, sim, false)
	defer ra.Close()
	defer rb.Close()

	src := listen(t, sim, netip.AddrPort{})
	dst := listen(t, sim, netip.AddrPort{})

	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: asB, SrcIA: asA,
			DstHost: dst.conn.LocalAddr().Addr(),
			SrcHost: src.conn.LocalAddr().Addr(),
			Path:    corePath(t),
		},
		UDP:     &slayers.UDP{SrcPort: src.conn.LocalAddr().Port(), DstPort: dst.conn.LocalAddr().Port()},
		Payload: []byte("x"),
	}
	raw, _ := pkt.Serialize(nil)
	_ = src.conn.Send(raw, ra.LocalAddr())
	sim.Run()
	if len(dst.pkts) != 1 {
		t.Fatalf("delivered %d", len(dst.pkts))
	}
	if ra.Metrics().Forwarded.Load() != 1 || rb.Metrics().Delivered.Load() != 1 {
		t.Errorf("metrics: fwd=%d del=%d", ra.Metrics().Forwarded.Load(), rb.Metrics().Delivered.Load())
	}
}

func TestPortUnreachableSCMP(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	ra, rb := twoAS(t, sim, false)
	defer ra.Close()
	defer rb.Close()

	src := listen(t, sim, netip.AddrPort{})
	// Destination host address exists but SCMP delivery for the error
	// goes back to src; the data packet goes to a host addr with a
	// valid (but no-handler) port — delivery is attempted and vanishes,
	// which is fine; here we instead break delivery by using an SCMP
	// payload the router cannot resolve a port for.
	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: asB, SrcIA: asA,
			DstHost: sim.AllocAddr(),
			SrcHost: src.conn.LocalAddr().Addr(),
			Path:    corePath(t),
		},
		SCMP:    &slayers.SCMP{Type: slayers.SCMPDestinationUnreachable}, // error without parseable quote
		Payload: []byte("garbage-quote"),
	}
	raw, _ := pkt.Serialize(nil)
	_ = src.conn.Send(raw, ra.LocalAddr())
	sim.Run()
	// The router cannot resolve a local port for this error message and
	// must NOT reply with an error to an error.
	if got := len(src.pkts); got != 0 {
		t.Fatalf("src received %d packets, want 0 (no error-on-error)", got)
	}
	if rb.Metrics().NoRouteDrops.Load() == 0 {
		t.Error("drop not recorded")
	}
}

func TestUnknownEgressInterface(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	ra, _ := New(Config{IA: asA, Key: key(asA), Net: sim})
	defer ra.Close()

	src := listen(t, sim, netip.AddrPort{})
	// Path wants egress interface 9, which doesn't exist.
	hops, betas, _ := spath.BuildSegment(100, 7, []spath.HopSpec{
		{Key: key(asA), ConsIngress: 0, ConsEgress: 9, ExpTime: 63},
		{Key: key(asB), ConsIngress: 1, ConsEgress: 0, ExpTime: 63},
	})
	p := spath.Path{
		SegLens: [3]uint8{2, 0, 0},
		Infos:   []spath.InfoField{{ConsDir: true, SegID: betas[0], Timestamp: 100}},
		Hops:    hops,
	}
	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: asB, SrcIA: asA,
			DstHost: sim.AllocAddr(),
			SrcHost: src.conn.LocalAddr().Addr(),
			Path:    p,
		},
		UDP: &slayers.UDP{SrcPort: src.conn.LocalAddr().Port(), DstPort: 9},
	}
	raw, _ := pkt.Serialize(nil)
	_ = src.conn.Send(raw, ra.LocalAddr())
	sim.Run()
	if len(src.pkts) != 1 || src.pkts[0].SCMP == nil ||
		src.pkts[0].SCMP.Type != slayers.SCMPDestinationUnreachable {
		t.Fatalf("expected DestinationUnreachable, got %+v", src.pkts)
	}
	// The quote carries the offending packet.
	var quoted slayers.Packet
	if err := quoted.Decode(src.pkts[0].Payload); err != nil {
		t.Fatalf("quote does not parse: %v", err)
	}
	if quoted.UDP == nil || quoted.UDP.DstPort != 9 {
		t.Errorf("quote = %+v", quoted.UDP)
	}
}

// TestTruncatedQuoteStillRoutedToApp is the regression test for SCMP
// errors quoting MTU-sized packets: the router truncates the quote to
// 512 bytes, which cuts the quoted UDP payload mid-stream and makes the
// quote unparseable for the strict decoder. The error must still reach
// the offending application — the router resolves the local port by
// parsing the quote tolerantly, only as far as the L4 ports require.
func TestTruncatedQuoteStillRoutedToApp(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	ra, _ := New(Config{IA: asA, Key: key(asA), Net: sim})
	defer ra.Close()

	src := listen(t, sim, netip.AddrPort{})
	// Path wants egress interface 9, which doesn't exist, so the router
	// answers with DestinationUnreachable quoting the offender.
	hops, betas, _ := spath.BuildSegment(100, 7, []spath.HopSpec{
		{Key: key(asA), ConsIngress: 0, ConsEgress: 9, ExpTime: 63},
		{Key: key(asB), ConsIngress: 1, ConsEgress: 0, ExpTime: 63},
	})
	p := spath.Path{
		SegLens: [3]uint8{2, 0, 0},
		Infos:   []spath.InfoField{{ConsDir: true, SegID: betas[0], Timestamp: 100}},
		Hops:    hops,
	}
	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: asB, SrcIA: asA,
			DstHost: sim.AllocAddr(),
			SrcHost: src.conn.LocalAddr().Addr(),
			Path:    p,
		},
		UDP:     &slayers.UDP{SrcPort: src.conn.LocalAddr().Port(), DstPort: 9},
		Payload: make([]byte, 1400), // MTU-sized: guarantees quote truncation
	}
	raw, _ := pkt.Serialize(nil)
	if len(raw) <= scmpQuoteLen {
		t.Fatalf("setup: offender %d bytes, need > %d to truncate", len(raw), scmpQuoteLen)
	}
	_ = src.conn.Send(raw, ra.LocalAddr())
	sim.Run()

	// The error must come back to the offending application's exact
	// port even though the quote is truncated.
	if len(src.pkts) != 1 || src.pkts[0].SCMP == nil ||
		src.pkts[0].SCMP.Type != slayers.SCMPDestinationUnreachable {
		t.Fatalf("expected DestinationUnreachable at src, got %+v", src.pkts)
	}
	quote := src.pkts[0].Payload
	if len(quote) != scmpQuoteLen {
		t.Fatalf("quote = %d bytes, want truncated to %d", len(quote), scmpQuoteLen)
	}
	// The strict decoder must reject the cut-off quote (this is what
	// used to break delivery) while the tolerant decoder recovers the
	// L4 ports.
	var strict slayers.Packet
	if err := strict.Decode(quote); err == nil {
		t.Fatal("strict decode accepted a truncated quote; test no longer exercises the tolerant path")
	}
	var quoted slayers.Packet
	if err := quoted.DecodeTruncated(quote); err != nil {
		t.Fatalf("tolerant decode: %v", err)
	}
	if quoted.UDP == nil || quoted.UDP.SrcPort != src.conn.LocalAddr().Port() || quoted.UDP.DstPort != 9 {
		t.Errorf("quoted ports = %+v", quoted.UDP)
	}
}

func TestTraceroute(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	ra, rb := twoAS(t, sim, false)
	defer ra.Close()
	defer rb.Close()

	src := listen(t, sim, netip.AddrPort{})
	p := corePath(t)
	p.Hops[1].RouterAlert = true // probe asB's router
	// RouterAlert is not covered by the MAC in this implementation
	// (matching SCION, where the alert bit is excluded from MAC input).
	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: asB, SrcIA: asA,
			DstHost: sim.AllocAddr(),
			SrcHost: src.conn.LocalAddr().Addr(),
			Path:    p,
		},
		SCMP: &slayers.SCMP{
			Type:       slayers.SCMPTracerouteRequest,
			Identifier: src.conn.LocalAddr().Port(),
			SeqNo:      3,
		},
	}
	raw, _ := pkt.Serialize(nil)
	_ = src.conn.Send(raw, ra.LocalAddr())
	sim.Run()
	if len(src.pkts) != 1 {
		t.Fatalf("src received %d", len(src.pkts))
	}
	reply := src.pkts[0].SCMP
	if reply == nil || reply.Type != slayers.SCMPTracerouteReply {
		t.Fatalf("reply = %+v", src.pkts[0])
	}
	if reply.IA != asB || reply.SeqNo != 3 || reply.IfID != 1 {
		t.Errorf("reply = %+v", reply)
	}
}

func TestIngressCheckDropsSpoofed(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	ra, rb := twoAS(t, sim, false)
	defer ra.Close()
	defer rb.Close()

	// A host inside B injects a packet whose current hop claims it
	// entered via interface 1 (external) — must be dropped.
	host := listen(t, sim, netip.AddrPort{})
	p := corePath(t)
	// Advance so the current hop is B's hop (as if mid-path).
	info := &p.Infos[0]
	if !spath.VerifyHop(key(asA), info, &p.Hops[0]) {
		t.Fatal("setup: hop 0 invalid")
	}
	_ = p.IncHop()
	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: asB, SrcIA: asA,
			DstHost: host.conn.LocalAddr().Addr(),
			SrcHost: host.conn.LocalAddr().Addr(),
			Path:    p,
		},
		UDP: &slayers.UDP{SrcPort: 1, DstPort: host.conn.LocalAddr().Port()},
	}
	raw, _ := pkt.Serialize(nil)
	_ = host.conn.Send(raw, rb.LocalAddr()) // from internal, not via circuit
	sim.Run()
	if len(host.pkts) != 0 {
		t.Fatal("spoofed packet delivered")
	}
	if rb.Metrics().IngressDrops.Load() != 1 {
		t.Errorf("ingress drops = %d", rb.Metrics().IngressDrops.Load())
	}
}

func TestLinkDownCallback(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	down := false
	ra, err := New(Config{
		IA: asA, Key: key(asA), Net: sim,
		LinkUp: func(ifID uint16) bool { return !down },
	})
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := New(Config{IA: asB, Key: key(asB), Net: sim})
	aAddr, _ := ra.AddInterface(1)
	bAddr, _ := rb.AddInterface(1)
	_ = ra.ConnectInterface(1, bAddr)
	_ = rb.ConnectInterface(1, aAddr)
	defer ra.Close()
	defer rb.Close()

	src := listen(t, sim, netip.AddrPort{})
	dst := listen(t, sim, netip.AddrPort{})
	send := func() {
		pkt := &slayers.Packet{
			Hdr: slayers.SCION{
				DstIA: asB, SrcIA: asA,
				DstHost: dst.conn.LocalAddr().Addr(),
				SrcHost: src.conn.LocalAddr().Addr(),
				Path:    corePath(t),
			},
			UDP: &slayers.UDP{SrcPort: src.conn.LocalAddr().Port(), DstPort: dst.conn.LocalAddr().Port()},
		}
		raw, _ := pkt.Serialize(nil)
		_ = src.conn.Send(raw, ra.LocalAddr())
		sim.Run()
	}
	send()
	if len(dst.pkts) != 1 {
		t.Fatal("baseline delivery failed")
	}
	down = true
	send()
	if len(dst.pkts) != 1 {
		t.Fatal("packet crossed downed link")
	}
	if len(src.pkts) != 1 || src.pkts[0].SCMP.Type != slayers.SCMPExternalInterfaceDown {
		t.Fatalf("expected ExternalInterfaceDown, got %+v", src.pkts)
	}
	if src.pkts[0].SCMP.IA != asA || src.pkts[0].SCMP.IfID != 1 {
		t.Errorf("SCMP detail = %+v", src.pkts[0].SCMP)
	}
}

func TestEmptyPathLocalDelivery(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	ra, _ := New(Config{IA: asA, Key: key(asA), Net: sim})
	defer ra.Close()
	host := listen(t, sim, netip.AddrPort{})
	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: asA, SrcIA: asA,
			DstHost: host.conn.LocalAddr().Addr(),
			SrcHost: host.conn.LocalAddr().Addr(),
		},
		UDP:     &slayers.UDP{SrcPort: host.conn.LocalAddr().Port(), DstPort: host.conn.LocalAddr().Port()},
		Payload: []byte("loop"),
	}
	raw, _ := pkt.Serialize(nil)
	_ = host.conn.Send(raw, ra.LocalAddr())
	sim.Run()
	if len(host.pkts) != 1 || string(host.pkts[0].Payload) != "loop" {
		t.Fatalf("AS-local delivery failed: %+v", host.pkts)
	}
	// Empty path to a different AS is dropped.
	pkt.Hdr.DstIA = asB
	raw, _ = pkt.Serialize(nil)
	_ = host.conn.Send(raw, ra.LocalAddr())
	sim.Run()
	if len(host.pkts) != 1 {
		t.Fatal("empty path crossed AS boundary")
	}
}

func TestGarbageDatagram(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	ra, _ := New(Config{IA: asA, Key: key(asA), Net: sim})
	defer ra.Close()
	host := listen(t, sim, netip.AddrPort{})
	_ = host.conn.Send([]byte("not a scion packet"), ra.LocalAddr())
	sim.Run()
	if ra.Metrics().ParseFailures.Load() != 1 {
		t.Errorf("parse failures = %d", ra.Metrics().ParseFailures.Load())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("router without transport accepted")
	}
	sim := simnet.NewSim(time.Unix(0, 0))
	r, err := New(Config{IA: asA, Key: key(asA), Net: sim})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.ConnectInterface(5, netip.MustParseAddrPort("10.0.0.1:1")); err == nil {
		t.Error("connecting unknown interface accepted")
	}
	if _, ok := r.InterfaceAddr(5); ok {
		t.Error("unknown interface resolved")
	}
	if _, err := r.AddInterface(2); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.InterfaceAddr(2); !ok {
		t.Error("known interface not resolved")
	}
	if r.IA() != asA {
		t.Error("IA mismatch")
	}
}

// TestAddInterfaceRejectsDuplicateAndZero: a second AddInterface with
// an ID the router has must not re-point the interface (nor leak the
// first socket), and interface 0 — "AS-internal" to the pipeline — is
// never external. The interface set up first keeps its address and
// still forwards after the refused calls.
func TestAddInterfaceRejectsDuplicateAndZero(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	ra, rb := twoAS(t, sim, false)
	defer ra.Close()
	defer rb.Close()

	before, _ := ra.InterfaceAddr(1)
	if addr, err := ra.AddInterface(1); err == nil {
		t.Errorf("duplicate interface accepted, bound %v", addr)
	}
	if addr, err := ra.AddInterface(0); err == nil {
		t.Errorf("interface 0 accepted, bound %v", addr)
	}
	if _, ok := ra.InterfaceAddr(0); ok {
		t.Error("interface 0 exists after the refused call")
	}
	if after, _ := ra.InterfaceAddr(1); after != before {
		t.Errorf("interface 1 moved from %v to %v", before, after)
	}

	src := listen(t, sim, netip.AddrPort{})
	dst := listen(t, sim, netip.AddrPort{})
	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: asB, SrcIA: asA,
			DstHost: dst.conn.LocalAddr().Addr(),
			SrcHost: src.conn.LocalAddr().Addr(),
			Path:    corePath(t),
		},
		UDP: &slayers.UDP{SrcPort: src.conn.LocalAddr().Port(), DstPort: dst.conn.LocalAddr().Port()},
	}
	raw, err := pkt.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.conn.Send(raw, ra.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if len(dst.pkts) != 1 {
		t.Fatalf("delivered %d packets over interface 1, want 1", len(dst.pkts))
	}
}
