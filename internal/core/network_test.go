package core

import (
	"net/netip"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/router"
	"sciera/internal/simnet"
	"sciera/internal/slayers"
	"sciera/internal/topology"
)

var (
	c1 = addr.MustParseIA("71-1")
	c2 = addr.MustParseIA("71-2")
	c3 = addr.MustParseIA("71-3")
	lA = addr.MustParseIA("71-10")
	lC = addr.MustParseIA("71-12")
)

// buildTopo: three meshed cores (c1-c2 doubled), leaves on c1 and c3.
func buildTopo(t testing.TB) *topology.Topology {
	t.Helper()
	topo := topology.New()
	for _, ia := range []addr.IA{c1, c2, c3} {
		if err := topo.AddAS(topology.ASInfo{IA: ia, Core: true}); err != nil {
			t.Fatal(err)
		}
	}
	for _, ia := range []addr.IA{lA, lC} {
		if err := topo.AddAS(topology.ASInfo{IA: ia}); err != nil {
			t.Fatal(err)
		}
	}
	link := func(a, b addr.IA, typ topology.LinkType, lat float64) {
		if _, err := topo.AddLink(topology.LinkEnd{IA: a}, topology.LinkEnd{IA: b}, typ, lat, ""); err != nil {
			t.Fatal(err)
		}
	}
	link(c1, c2, topology.LinkCore, 10)
	link(c1, c2, topology.LinkCore, 30)
	link(c2, c3, topology.LinkCore, 10)
	link(c1, c3, topology.LinkCore, 50)
	link(c1, lA, topology.LinkParent, 5)
	link(c3, lC, topology.LinkParent, 5)
	return topo
}

func buildNet(t testing.TB, sim *simnet.Sim) *Network {
	t.Helper()
	n, err := Build(buildTopo(t), sim, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { checkConserved(t, n) })
	return n
}

// checkConserved holds every router of n to its conservation identity.
func checkConserved(t testing.TB, n *Network) {
	t.Helper()
	for ia, r := range n.routers {
		if err := r.Metrics().Conserved(); err != nil {
			t.Errorf("router %v: %v", ia, err)
		}
	}
}

// host attaches a raw underlay conn inside an AS.
type host struct {
	ia   addr.IA
	conn simnet.Conn
	rtr  *router.Router
	recv []*slayers.Packet
}

func attachHost(t testing.TB, n *Network, ia addr.IA) *host {
	t.Helper()
	h := &host{ia: ia}
	r, ok := n.Router(ia)
	if !ok {
		t.Fatalf("no router for %v", ia)
	}
	h.rtr = r
	conn, err := n.Transport.Listen(n.HostAddr(), func(pkt []byte, from netip.AddrPort) {
		var p slayers.Packet
		if err := p.Decode(pkt); err != nil {
			t.Errorf("host %v: decode: %v", ia, err)
			return
		}
		cp := p
		cp.Payload = append([]byte(nil), p.Payload...)
		h.recv = append(h.recv, &cp)
	})
	if err != nil {
		t.Fatal(err)
	}
	h.conn = conn
	return h
}

func TestEndToEndUDPDelivery(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim)
	defer n.Close()

	paths := n.Paths(lA, lC)
	if len(paths) == 0 {
		t.Fatal("no paths lA->lC")
	}
	src := attachHost(t, n, lA)
	dst := attachHost(t, n, lC)

	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA:   lC,
			SrcIA:   lA,
			DstHost: dst.conn.LocalAddr().Addr(),
			SrcHost: src.conn.LocalAddr().Addr(),
			Path:    *paths[0].Raw.Copy(),
		},
		UDP:     &slayers.UDP{SrcPort: src.conn.LocalAddr().Port(), DstPort: dst.conn.LocalAddr().Port()},
		Payload: []byte("across the sciera"),
	}
	raw, err := pkt.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	start := sim.Now()
	if err := src.conn.Send(raw, src.rtr.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	if len(dst.recv) != 1 {
		t.Fatalf("dst received %d packets", len(dst.recv))
	}
	got := dst.recv[0]
	if string(got.Payload) != "across the sciera" {
		t.Errorf("payload = %q", got.Payload)
	}
	if got.Hdr.SrcIA != lA || got.Hdr.DstIA != lC {
		t.Errorf("IAs = %v -> %v", got.Hdr.SrcIA, got.Hdr.DstIA)
	}
	// One-way delay ≈ path latency + intra-AS hops.
	elapsed := sim.Now().Sub(start)
	wantMin := time.Duration(paths[0].LatencyMS * float64(time.Millisecond))
	if elapsed < wantMin || elapsed > wantMin+10*time.Millisecond {
		t.Errorf("delivery took %v, path latency %v", elapsed, wantMin)
	}
	// Router metrics: forwarded at transit, delivered at destination.
	dstRtr, _ := n.Router(lC)
	if dstRtr.Metrics().Delivered.Load() != 1 {
		t.Errorf("delivered = %d", dstRtr.Metrics().Delivered.Load())
	}
}

func TestAllPathsDeliver(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim)
	defer n.Close()
	src := attachHost(t, n, lA)
	dst := attachHost(t, n, lC)

	paths := n.Paths(lA, lC)
	if len(paths) < 3 {
		t.Fatalf("paths = %d", len(paths))
	}
	for i, p := range paths {
		pkt := &slayers.Packet{
			Hdr: slayers.SCION{
				DstIA:   lC,
				SrcIA:   lA,
				DstHost: dst.conn.LocalAddr().Addr(),
				SrcHost: src.conn.LocalAddr().Addr(),
				Path:    *p.Raw.Copy(),
			},
			UDP:     &slayers.UDP{SrcPort: src.conn.LocalAddr().Port(), DstPort: dst.conn.LocalAddr().Port()},
			Payload: []byte{byte(i)},
		}
		raw, err := pkt.Serialize(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.conn.Send(raw, src.rtr.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	if len(dst.recv) != len(paths) {
		t.Fatalf("delivered %d of %d paths", len(dst.recv), len(paths))
	}
}

func TestTamperedPacketDropped(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim)
	defer n.Close()
	src := attachHost(t, n, lA)
	dst := attachHost(t, n, lC)

	paths := n.Paths(lA, lC)
	p := paths[0].Raw.Copy()
	// Forge the construction-ingress interface of a middle hop (a path
	// splicing attempt): MAC verification at that AS must reject it.
	// (Forging ConsEgress would already fail the ingress check, since
	// ConsEgress is the data-plane arrival interface on reversed
	// segments.)
	p.Hops[1].ConsIngress ^= 0x7
	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: lC, SrcIA: lA,
			DstHost: dst.conn.LocalAddr().Addr(),
			SrcHost: src.conn.LocalAddr().Addr(),
			Path:    *p,
		},
		UDP: &slayers.UDP{SrcPort: src.conn.LocalAddr().Port(), DstPort: dst.conn.LocalAddr().Port()},
	}
	raw, _ := pkt.Serialize(nil)
	_ = src.conn.Send(raw, src.rtr.LocalAddr())
	sim.Run()
	if len(dst.recv) != 0 {
		t.Fatal("tampered packet delivered")
	}
	// Some router recorded a MAC failure.
	total := uint64(0)
	for _, ia := range []addr.IA{c1, c2, c3, lA, lC} {
		r, _ := n.Router(ia)
		total += r.Metrics().MACFailures.Load()
	}
	if total == 0 {
		t.Error("no MAC failure recorded")
	}
}

func TestLinkDownGeneratesSCMPAndReroute(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim)
	defer n.Close()
	src := attachHost(t, n, lA)
	dst := attachHost(t, n, lC)

	paths := n.Paths(lA, lC)
	p0 := paths[0]

	// Cut a link on the first path (an inter-core one).
	var cutLink int = -1
	for i := 0; i < len(p0.Interfaces); i += 2 {
		l, ok := n.Topo.LinkAt(topology.LinkEnd{IA: p0.Interfaces[i].IA, IfID: p0.Interfaces[i].IfID})
		if ok && l.Type == topology.LinkCore {
			cutLink = l.ID
			break
		}
	}
	if cutLink < 0 {
		t.Fatal("no core link on path")
	}
	// Cut only the data plane first (SetLinkUp on topo, no refresh) so
	// the stale path triggers SCMP ExternalInterfaceDown.
	if err := n.Topo.SetLinkUp(cutLink, false); err != nil {
		t.Fatal(err)
	}

	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: lC, SrcIA: lA,
			DstHost: dst.conn.LocalAddr().Addr(),
			SrcHost: src.conn.LocalAddr().Addr(),
			Path:    *p0.Raw.Copy(),
		},
		UDP: &slayers.UDP{SrcPort: src.conn.LocalAddr().Port(), DstPort: dst.conn.LocalAddr().Port()},
	}
	raw, _ := pkt.Serialize(nil)
	_ = src.conn.Send(raw, src.rtr.LocalAddr())
	sim.Run()

	if len(dst.recv) != 0 {
		t.Fatal("packet crossed a downed link")
	}
	// The source host received an SCMP ExternalInterfaceDown.
	if len(src.recv) != 1 {
		t.Fatalf("src received %d packets, want 1 SCMP error", len(src.recv))
	}
	scmp := src.recv[0].SCMP
	if scmp == nil || scmp.Type != slayers.SCMPExternalInterfaceDown {
		t.Fatalf("got %+v", src.recv[0])
	}

	// After a control-plane refresh, new paths avoid the dead link and
	// still deliver.
	if err := n.RefreshControlPlane(); err != nil {
		t.Fatal(err)
	}
	fresh := n.Paths(lA, lC)
	if len(fresh) == 0 {
		t.Fatal("no paths after refresh")
	}
	for _, p := range fresh {
		for i := 0; i < len(p.Interfaces); i += 2 {
			l, ok := n.Topo.LinkAt(topology.LinkEnd{IA: p.Interfaces[i].IA, IfID: p.Interfaces[i].IfID})
			if ok && l.ID == cutLink {
				t.Fatal("fresh path uses the dead link")
			}
		}
	}
	pkt.Hdr.Path = *fresh[0].Raw.Copy()
	raw, _ = pkt.Serialize(nil)
	_ = src.conn.Send(raw, src.rtr.LocalAddr())
	sim.Run()
	if len(dst.recv) != 1 {
		t.Fatal("rerouted packet not delivered")
	}
}

func TestEchoOverNetwork(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim)
	defer n.Close()
	src := attachHost(t, n, lA)

	// Echo requests address a host: they land on the well-known
	// end-host SCMP port, where the stack's responder listens.
	dstHost := sim.AllocAddr()
	var gotReq *slayers.Packet
	_, err := sim.Listen(netip.AddrPortFrom(dstHost, router.EndhostPort), func(pkt []byte, from netip.AddrPort) {
		var p slayers.Packet
		if err := p.Decode(pkt); err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		gotReq = &p
	})
	if err != nil {
		t.Fatal(err)
	}

	paths := n.Paths(lA, lC)
	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: lC, SrcIA: lA,
			DstHost: dstHost,
			SrcHost: src.conn.LocalAddr().Addr(),
			Path:    *paths[0].Raw.Copy(),
		},
		SCMP:    &slayers.SCMP{Type: slayers.SCMPEchoRequest, Identifier: src.conn.LocalAddr().Port(), SeqNo: 1},
		Payload: []byte("ping"),
	}
	raw, _ := pkt.Serialize(nil)
	_ = src.conn.Send(raw, src.rtr.LocalAddr())
	sim.Run()
	if gotReq == nil || gotReq.SCMP == nil || gotReq.SCMP.Type != slayers.SCMPEchoRequest {
		t.Fatalf("echo request not delivered to end-host port: %+v", gotReq)
	}
}

func TestDispatcherModeDelivery(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n, err := Build(buildTopo(t), sim, Options{Seed: 1, UseDispatcher: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	src := attachHost(t, n, lA)

	// A "dispatcher" listens on the shared port at the destination host
	// address.
	dstRtr, _ := n.Router(lC)
	dispAddrPort := netip.AddrPortFrom(sim.AllocAddr(), router.DispatcherPort)
	var got []byte
	_, err = sim.Listen(dispAddrPort, func(pkt []byte, from netip.AddrPort) {
		got = append([]byte(nil), pkt...)
	})
	if err != nil {
		t.Fatal(err)
	}

	paths := n.Paths(lA, lC)
	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: lC, SrcIA: lA,
			DstHost: dispAddrPort.Addr(),
			SrcHost: src.conn.LocalAddr().Addr(),
			Path:    *paths[0].Raw.Copy(),
		},
		UDP:     &slayers.UDP{SrcPort: 1, DstPort: 9999}, // app port != dispatcher port
		Payload: []byte("via dispatcher"),
	}
	raw, _ := pkt.Serialize(nil)
	_ = src.conn.Send(raw, src.rtr.LocalAddr())
	sim.Run()
	if got == nil {
		t.Fatal("dispatcher did not receive the packet")
	}
	var p slayers.Packet
	if err := p.Decode(got); err != nil {
		t.Fatal(err)
	}
	if p.UDP == nil || p.UDP.DstPort != 9999 {
		t.Errorf("dispatcher packet = %+v", p.UDP)
	}
	_ = dstRtr
}

func TestPKIEnabledNetworkSignsBeacons(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n, err := Build(buildTopo(t), sim, Options{Seed: 1, WithPKI: true, Now: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	reg := n.Registry()
	segs := reg.Core.All()
	if len(segs) == 0 {
		t.Fatal("no core segments")
	}
	for _, s := range segs {
		if err := s.VerifySignatures(n.TRCs(), time.Now()); err != nil {
			t.Fatalf("segment %v: %v", s, err)
		}
	}
	if n.Signer(lA) == nil {
		t.Error("leaf has no signer")
	}
}

func TestBuildOnUDPNet(t *testing.T) {
	udp := simnet.NewUDPNet()
	defer udp.Close()
	n, err := Build(buildTopo(t), udp, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	t.Cleanup(func() { checkConserved(t, n) })

	recvd := make(chan []byte, 1)
	hostConn, err := udp.Listen(netip.AddrPort{}, func(pkt []byte, from netip.AddrPort) {
		select {
		case recvd <- pkt:
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := n.Paths(lA, lC)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	srcRtr, _ := n.Router(lA)
	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: lC, SrcIA: lA,
			DstHost: hostConn.LocalAddr().Addr(),
			SrcHost: hostConn.LocalAddr().Addr(),
			Path:    *paths[0].Raw.Copy(),
		},
		UDP:     &slayers.UDP{SrcPort: hostConn.LocalAddr().Port(), DstPort: hostConn.LocalAddr().Port()},
		Payload: []byte("over real loopback UDP"),
	}
	raw, _ := pkt.Serialize(nil)
	if err := hostConn.Send(raw, srcRtr.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-recvd:
		var p slayers.Packet
		if err := p.Decode(got); err != nil {
			t.Fatal(err)
		}
		if string(p.Payload) != "over real loopback UDP" {
			t.Errorf("payload = %q", p.Payload)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("timeout: packet did not traverse the loopback network")
	}
}
