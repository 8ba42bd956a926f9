package core

import (
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/simnet"
	"sciera/internal/slayers"
	"sciera/internal/spath"
	"sciera/internal/topology"
)

var (
	lB = addr.MustParseIA("71-11")
	mM = addr.MustParseIA("71-20")
	lX = addr.MustParseIA("71-21")
	lY = addr.MustParseIA("71-22")
)

// newPeerTopo extends the standard test net with a peering link
// between lA (under c1) and lB (under c3), and a three-tier branch
// c1 -> mM -> {lX, lY} whose leaves only reach each other via a
// shortcut crossover at mM.
func newPeerTopo(t testing.TB) *topology.Topology {
	t.Helper()
	topo := buildTopo(t)
	for _, ia := range []addr.IA{lB, mM, lX, lY} {
		if err := topo.AddAS(topology.ASInfo{IA: ia}); err != nil {
			t.Fatal(err)
		}
	}
	link := func(a, b addr.IA, typ topology.LinkType, lat float64) {
		if _, err := topo.AddLink(topology.LinkEnd{IA: a}, topology.LinkEnd{IA: b}, typ, lat, ""); err != nil {
			t.Fatal(err)
		}
	}
	link(c3, lB, topology.LinkParent, 5)
	link(lA, lB, topology.LinkPeer, 3)
	link(c1, mM, topology.LinkParent, 10)
	link(mM, lX, topology.LinkParent, 4)
	link(mM, lY, topology.LinkParent, 6)
	return topo
}

// sendOver serializes a UDP packet over the given path and runs the sim.
func sendOver(t *testing.T, sim *simnet.Sim, src, dst *host, p *combinator.Path, payload string) {
	t.Helper()
	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA:   dst.ia,
			SrcIA:   src.ia,
			DstHost: dst.conn.LocalAddr().Addr(),
			SrcHost: src.conn.LocalAddr().Addr(),
			Path:    *p.Raw.Copy(),
		},
		UDP:     &slayers.UDP{SrcPort: src.conn.LocalAddr().Port(), DstPort: dst.conn.LocalAddr().Port()},
		Payload: []byte(payload),
	}
	raw, err := pkt.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.conn.Send(raw, src.rtr.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	sim.Run()
}

// TestPeerPathDelivery sends a packet over the one-hop peering link
// path lA -> lB through the real border routers: the routers must apply
// the peer verification rule and forward across the peer link instead
// of climbing to the core.
func TestPeerPathDelivery(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n, err := Build(newPeerTopo(t), sim, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	paths := n.Paths(lA, lB)
	var peer *combinator.Path
	for _, p := range paths {
		if p.NumHops() == 1 {
			peer = p
			break
		}
	}
	if peer == nil {
		t.Fatalf("no 1-hop peer path among %d paths lA->lB", len(paths))
	}

	src := attachHost(t, n, lA)
	dst := attachHost(t, n, lB)
	start := sim.Now()
	sendOver(t, sim, src, dst, peer, "over the peering link")

	if len(dst.recv) != 1 {
		rtrA, _ := n.Router(lA)
		rtrB, _ := n.Router(lB)
		t.Fatalf("delivered %d packets; lA MAC failures=%d, lB MAC failures=%d",
			len(dst.recv), rtrA.Metrics().MACFailures.Load(), rtrB.Metrics().MACFailures.Load())
	}
	if string(dst.recv[0].Payload) != "over the peering link" {
		t.Errorf("payload = %q", dst.recv[0].Payload)
	}
	// One-way delay is dominated by the 3ms peer link, far below the
	// 20ms+ up-core-down alternative.
	elapsed := sim.Now().Sub(start)
	if elapsed < 3*time.Millisecond || elapsed > 13*time.Millisecond {
		t.Errorf("peer delivery took %v, want ~3ms", elapsed)
	}
}

// TestPeerPathReplyInFlight checks in-flight reversal across a peering
// link: the receiver reverses the packet's path as a border router or
// SCMP responder would (accumulators kept as advanced in flight) and
// the reply must verify hop-by-hop back to the sender.
func TestPeerPathReplyInFlight(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n, err := Build(newPeerTopo(t), sim, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	var peer *combinator.Path
	for _, p := range n.Paths(lA, lB) {
		if p.NumHops() == 1 {
			peer = p
			break
		}
	}
	if peer == nil {
		t.Fatal("no peer path")
	}
	src := attachHost(t, n, lA)
	dst := attachHost(t, n, lB)
	sendOver(t, sim, src, dst, peer, "ping?")
	if len(dst.recv) != 1 {
		t.Fatalf("request not delivered (%d packets)", len(dst.recv))
	}

	got := dst.recv[0]
	revPath, err := spath.ReverseFromCurrent(&got.Hdr.Path)
	if err != nil {
		t.Fatal(err)
	}
	reply := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA:   lA,
			SrcIA:   lB,
			DstHost: got.Hdr.SrcHost,
			SrcHost: got.Hdr.DstHost,
			Path:    *revPath,
		},
		UDP:     &slayers.UDP{SrcPort: got.UDP.DstPort, DstPort: got.UDP.SrcPort},
		Payload: []byte("pong!"),
	}
	raw, err := reply.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.conn.Send(raw, dst.rtr.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if len(src.recv) != 1 {
		rtrA, _ := n.Router(lA)
		rtrB, _ := n.Router(lB)
		t.Fatalf("reply not delivered; lA MAC failures=%d, lB MAC failures=%d",
			rtrA.Metrics().MACFailures.Load(), rtrB.Metrics().MACFailures.Load())
	}
	if string(src.recv[0].Payload) != "pong!" {
		t.Errorf("reply payload = %q", src.recv[0].Payload)
	}
}

// TestShortcutPathDelivery sends a packet over the two-hop shortcut
// lX -> mM -> lY: the crossover router at mM must verify both truncated
// hop fields and switch segments without bouncing via the core.
func TestShortcutPathDelivery(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n, err := Build(newPeerTopo(t), sim, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	paths := n.Paths(lX, lY)
	if len(paths) == 0 {
		t.Fatal("no paths lX->lY")
	}
	var sc *combinator.Path
	for _, p := range paths {
		if p.NumHops() == 2 {
			sc = p
			break
		}
	}
	if sc == nil {
		t.Fatalf("no 2-hop shortcut among %d paths lX->lY", len(paths))
	}
	if got := sc.ASes(); got[1] != mM {
		t.Fatalf("shortcut crosses %v, want mM", got[1])
	}

	src := attachHost(t, n, lX)
	dst := attachHost(t, n, lY)
	start := sim.Now()
	sendOver(t, sim, src, dst, sc, "through the shortcut")

	if len(dst.recv) != 1 {
		rtrM, _ := n.Router(mM)
		t.Fatalf("delivered %d packets; mM MAC failures=%d drops=%d",
			len(dst.recv), rtrM.Metrics().MACFailures.Load(), rtrM.Metrics().NoRouteDrops.Load())
	}
	if string(dst.recv[0].Payload) != "through the shortcut" {
		t.Errorf("payload = %q", dst.recv[0].Payload)
	}
	// 4ms + 6ms links, no 10ms climb to c1 and back.
	elapsed := sim.Now().Sub(start)
	if elapsed < 10*time.Millisecond || elapsed > 20*time.Millisecond {
		t.Errorf("shortcut delivery took %v, want ~10ms", elapsed)
	}
	// The crossover router saw the packet exactly once.
	rtrM, _ := n.Router(mM)
	if fwd := rtrM.Metrics().Forwarded.Load(); fwd != 1 {
		t.Errorf("mM forwarded = %d, want 1", fwd)
	}
}

// TestShortcutReplyInFlight reverses a shortcut path mid-flight and
// sends the reply back through the crossover.
func TestShortcutReplyInFlight(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n, err := Build(newPeerTopo(t), sim, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	var sc *combinator.Path
	for _, p := range n.Paths(lX, lY) {
		if p.NumHops() == 2 {
			sc = p
			break
		}
	}
	if sc == nil {
		t.Fatal("no shortcut")
	}
	src := attachHost(t, n, lX)
	dst := attachHost(t, n, lY)
	sendOver(t, sim, src, dst, sc, "there")
	if len(dst.recv) != 1 {
		t.Fatal("request not delivered")
	}

	revPath, err := spath.ReverseFromCurrent(&dst.recv[0].Hdr.Path)
	if err != nil {
		t.Fatal(err)
	}
	reply := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA:   lX,
			SrcIA:   lY,
			DstHost: src.conn.LocalAddr().Addr(),
			SrcHost: dst.conn.LocalAddr().Addr(),
			Path:    *revPath,
		},
		UDP:     &slayers.UDP{SrcPort: dst.conn.LocalAddr().Port(), DstPort: src.conn.LocalAddr().Port()},
		Payload: []byte("and back"),
	}
	raw, err := reply.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.conn.Send(raw, dst.rtr.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if len(src.recv) != 1 {
		t.Fatalf("reply not delivered (%d packets at src)", len(src.recv))
	}
	if string(src.recv[0].Payload) != "and back" {
		t.Errorf("reply payload = %q", src.recv[0].Payload)
	}
}

// TestPeerEchoOverNetwork runs an SCMP echo over the peering link: the
// responder-side delivery to the end-host port plus the in-flight
// reversal done by the network's echo machinery must both handle the
// Peer-flagged path.
func TestPeerEchoOverNetwork(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n, err := Build(newPeerTopo(t), sim, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	resp, err := n.AttachResponder(lB)
	if err != nil {
		t.Fatal(err)
	}
	pinger, err := n.NewPinger(lA)
	if err != nil {
		t.Fatal(err)
	}
	var peer *combinator.Path
	for _, p := range n.Paths(lA, lB) {
		if p.NumHops() == 1 {
			peer = p
			break
		}
	}
	if peer == nil {
		t.Fatal("no peer path")
	}
	var rtt time.Duration
	var pingErr error
	done := make(chan struct{})
	pinger.Ping(lB, resp.Addr().Addr(), peer, 2*time.Second, func(d time.Duration, err error) {
		rtt, pingErr = d, err
		close(done)
	})
	sim.Run()
	select {
	case <-done:
	default:
		t.Fatal("ping did not complete")
	}
	if pingErr != nil {
		t.Fatalf("ping over peer path: %v", pingErr)
	}
	// RTT ≈ 2 x 3ms peer link (plus intra-AS delays).
	if rtt < 6*time.Millisecond || rtt > 26*time.Millisecond {
		t.Errorf("peer echo RTT = %v, want ~6ms", rtt)
	}
}
