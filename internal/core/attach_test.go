package core

import (
	"strings"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/scrypto"
	"sciera/internal/simnet"
	"sciera/internal/slayers"
	"sciera/internal/spath"
	"sciera/internal/topology"
)

// TestAttachASRuntime joins a new AS to a running network — the
// orchestrator's Section 4.4 primitive — and checks that the control
// plane re-converges and the data plane delivers to and from it.
func TestAttachASRuntime(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim)
	defer n.Close()

	newIA := addr.MustParseIA("71-2:0:99")
	err := n.AttachAS(topology.ASInfo{IA: newIA, Name: "Newcomer"}, []UplinkSpec{
		{Parent: c2, LatencyMS: 7, Name: "newcomer-uplink"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Router(newIA); !ok {
		t.Error("no router for attached AS")
	}
	if _, ok := n.ControlService(newIA); !ok {
		t.Error("no control service for attached AS")
	}
	if n.Key(newIA) == (scrypto.HopKey{}) {
		t.Error("attached AS has zero hop key")
	}

	// End-to-end delivery in both directions.
	src := attachHost(t, n, newIA)
	dst := attachHost(t, n, lC)
	paths := n.Paths(newIA, lC)
	if len(paths) == 0 {
		t.Fatal("no paths from attached AS")
	}
	sendOver(t, sim, src, dst, paths[0], "hello from the newcomer")
	if len(dst.recv) != 1 || string(dst.recv[0].Payload) != "hello from the newcomer" {
		t.Fatalf("delivery from attached AS failed (%d packets)", len(dst.recv))
	}
	back := n.Paths(lC, newIA)
	if len(back) == 0 {
		t.Fatal("no paths toward attached AS")
	}
	sendOver(t, sim, dst, src, back[0], "welcome aboard")
	if len(src.recv) != 1 || string(src.recv[0].Payload) != "welcome aboard" {
		t.Fatalf("delivery to attached AS failed (%d packets)", len(src.recv))
	}

	// The attached AS's control service counts on the network's shared
	// cells: a daemon lookup it serves moves sciera_control_requests_total.
	requests := func() float64 { return n.TelemetrySnapshot().Total("sciera_control_requests_total") }
	served := requests()
	if len(daemonFingerprints(t, n, sim, newIA, lC)) == 0 {
		t.Fatal("daemon in the attached AS resolved no paths")
	}
	if got := requests(); got != served+1 {
		t.Errorf("control requests after a lookup served by the attached AS = %v, want %v", got, served+1)
	}
}

// TestAttachASErrors exercises the failure modes of runtime attachment.
func TestAttachASErrors(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim)
	defer n.Close()

	// No uplinks.
	if err := n.AttachAS(topology.ASInfo{IA: addr.MustParseIA("71-2:0:98")}, nil); err == nil {
		t.Error("AttachAS without uplinks succeeded")
	}
	// Already-present AS.
	if err := n.AttachAS(topology.ASInfo{IA: lA}, []UplinkSpec{{Parent: c1, LatencyMS: 1}}); err == nil {
		t.Error("AttachAS of existing AS succeeded")
	}
	// Uplink to an AS that is not in the network.
	ghost := addr.MustParseIA("71-2:0:97")
	err := n.AttachAS(topology.ASInfo{IA: addr.MustParseIA("71-2:0:96")}, []UplinkSpec{
		{Parent: ghost, LatencyMS: 1},
	})
	if err == nil {
		t.Error("AttachAS with unknown parent succeeded")
	}
	// AddRuntimeLink with unknown endpoints.
	if _, err := n.AddRuntimeLink(ghost, lA, topology.LinkParent, 1, ""); err == nil {
		t.Error("AddRuntimeLink from unknown AS succeeded")
	}
	if _, err := n.AddRuntimeLink(lA, ghost, topology.LinkParent, 1, ""); err == nil {
		t.Error("AddRuntimeLink to unknown AS succeeded")
	}
}

// TestAddRuntimeLinkCreatesPaths adds a circuit between two running
// ASes at runtime — the "new EU-US circuits of Jan 25" event of
// Section 5.4 — and checks new paths appear after a refresh.
func TestAddRuntimeLinkCreatesPaths(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim)
	defer n.Close()

	beforeCount := len(n.Paths(lA, lC))
	if beforeCount == 0 {
		t.Fatal("no baseline paths")
	}
	if _, err := n.AddRuntimeLink(c1, c3, topology.LinkCore, 12, "new-transatlantic"); err != nil {
		t.Fatal(err)
	}
	if err := n.RefreshControlPlane(); err != nil {
		t.Fatal(err)
	}
	after := n.Paths(lA, lC)
	if len(after) <= beforeCount {
		t.Errorf("paths after new circuit = %d, want > %d", len(after), beforeCount)
	}
	// The new circuit actually carries traffic: find a path using it
	// (latency 5+12+5=22 is now the fastest) and deliver over it.
	var best *combinator.Path
	for _, p := range after {
		if best == nil || p.LatencyMS < best.LatencyMS {
			best = p
		}
	}
	if best.LatencyMS != 22 {
		t.Errorf("fastest path latency = %v, want 22 over the new circuit", best.LatencyMS)
	}
	src := attachHost(t, n, lA)
	dst := attachHost(t, n, lC)
	sendOver(t, sim, src, dst, best, "via the fresh circuit")
	if len(dst.recv) != 1 {
		t.Fatalf("delivery over runtime link failed (%d packets)", len(dst.recv))
	}
}

// TestRuntimeLinkCircuit holds a circuit made by AddRuntimeLink to the
// rules of a built one: an echo across it takes exactly the RTT its
// LatencyMS and the intra-AS delays predict, and once the link is down
// the same probe meets SCMP ExternalInterfaceDown at the router whose
// egress it is.
func TestRuntimeLinkCircuit(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim)
	defer n.Close()
	l, err := n.AddRuntimeLink(c1, c3, topology.LinkCore, 12, "runtime")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RefreshControlPlane(); err != nil {
		t.Fatal(err)
	}
	var path *combinator.Path
	for _, p := range n.Paths(lA, lC) {
		if p.LatencyMS == 5+12+5 {
			path = p
		}
	}
	if path == nil {
		t.Fatal("no lA->lC path over the runtime circuit")
	}
	resp, err := n.AttachResponder(lC)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Close()
	pinger, err := n.NewPinger(lA)
	if err != nil {
		t.Fatal(err)
	}
	defer pinger.Close()

	rtt, err := pinger.PingSync(lC, resp.Addr().Addr(), path, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Each way: host to router and router to host inside an AS (the
	// default 100µs each), plus the three circuits' propagation.
	if want := 2 * (2*100*time.Microsecond + 22*time.Millisecond); rtt != want {
		t.Errorf("RTT over the runtime circuit = %v, want %v", rtt, want)
	}

	if err := n.Topo.SetLinkUp(l.ID, false); err != nil {
		t.Fatal(err)
	}
	_, err = pinger.PingSync(lC, resp.Addr().Addr(), path, time.Second)
	if err == nil || !strings.Contains(err.Error(), slayers.SCMPExternalInterfaceDown.String()) {
		t.Fatalf("probe over the downed runtime circuit: %v, want SCMP %v", err, slayers.SCMPExternalInterfaceDown)
	}
	r, _ := n.Router(c1)
	if got := r.Metrics().LinkDownDrops.Load(); got != 1 {
		t.Errorf("%v link-down drops = %d, want 1", c1, got)
	}
}

// TestSetLinkUpReconverges flips a circuit down and up again and checks
// the path set shrinks and recovers.
func TestSetLinkUpReconverges(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim)
	defer n.Close()

	full := len(n.Paths(lA, lC))
	// Find the direct c1-c3 core link.
	var target *topology.Link
	for _, l := range n.Topo.Links() {
		if l.Type == topology.LinkCore &&
			((l.A.IA == c1 && l.B.IA == c3) || (l.A.IA == c3 && l.B.IA == c1)) {
			target = l
			break
		}
	}
	if target == nil {
		t.Fatal("no direct c1-c3 link in test topology")
	}
	if err := n.SetLinkUp(target.ID, false); err != nil {
		t.Fatal(err)
	}
	reduced := len(n.Paths(lA, lC))
	if reduced >= full {
		t.Errorf("paths with link down = %d, want < %d", reduced, full)
	}
	if err := n.SetLinkUp(target.ID, true); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Paths(lA, lC)); got != full {
		t.Errorf("paths after recovery = %d, want %d", got, full)
	}
	// Unknown link id errors.
	if err := n.SetLinkUp(999999, false); err == nil {
		t.Error("SetLinkUp on unknown link succeeded")
	}
}

// TestNewDaemonFromCore creates a daemon via the network helper and
// resolves paths through the control service.
func TestNewDaemonFromCore(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim)
	defer n.Close()

	d, err := n.NewDaemon(lA)
	if err != nil {
		t.Fatal(err)
	}
	var paths []*combinator.Path
	var lookupErr error
	d.PathsAsync(lC, func(p []*combinator.Path, err error) { paths, lookupErr = p, err })
	sim.Run()
	if lookupErr != nil {
		t.Fatal(lookupErr)
	}
	if len(paths) == 0 {
		t.Fatal("daemon resolved no paths")
	}
	// Daemon inside an unknown AS fails.
	if _, err := n.NewDaemon(addr.MustParseIA("71-2:0:95")); err == nil {
		t.Error("NewDaemon for unknown AS succeeded")
	}
}

// TestOmniscientVerifier walks every path the network produces for a
// few pairs with the per-AS keys from Network.Key — the cross-check a
// test harness uses to validate the whole control plane output.
func TestOmniscientVerifier(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n, err := Build(newPeerTopo(t), sim, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	pairs := [][2]addr.IA{{lA, lC}, {lA, lB}, {lX, lY}, {c1, c3}, {lC, lA}}
	total := 0
	for _, pr := range pairs {
		for _, p := range n.Paths(pr[0], pr[1]) {
			verifyNetWalk(t, n, p)
			total++
		}
	}
	if total < 10 {
		t.Errorf("verified only %d paths across %d pairs", total, len(pairs))
	}
}

// verifyNetWalk replays the border-router verification over a combined
// path using the network's topology and keys.
func verifyNetWalk(t *testing.T, n *Network, p *combinator.Path) {
	t.Helper()
	raw := p.Raw.Copy()
	cur := p.Src
	for {
		info, err := raw.CurrentInfo()
		if err != nil {
			t.Fatalf("path %s: %v", p.Fingerprint, err)
		}
		hop, err := raw.CurrentHop()
		if err != nil {
			t.Fatalf("path %s: %v", p.Fingerprint, err)
		}
		peerCross := info.Peer &&
			((info.ConsDir && raw.IsFirstHopOfSegment()) ||
				(!info.ConsDir && raw.IsLastHopOfSegment()))
		var ok bool
		if peerCross {
			ok = spath.VerifyPeerHop(n.Key(cur), info, hop)
		} else {
			ok = spath.VerifyHop(n.Key(cur), info, hop)
		}
		if !ok {
			t.Fatalf("path %s: MAC failure at %v", p.Fingerprint, cur)
		}
		egress := spath.DataEgress(info, hop)
		if raw.IsLastHop() {
			break
		}
		if raw.IsLastHopOfSegment() && !(peerCross && egress != 0) {
			if err := raw.IncHop(); err != nil {
				t.Fatalf("path %s: %v", p.Fingerprint, err)
			}
			continue
		}
		l, okL := n.Topo.LinkAt(topology.LinkEnd{IA: cur, IfID: egress})
		if !okL {
			t.Fatalf("path %s: no link at %v#%d", p.Fingerprint, cur, egress)
		}
		next, _ := l.Other(cur)
		cur = next.IA
		if err := raw.IncHop(); err != nil {
			t.Fatalf("path %s: %v", p.Fingerprint, err)
		}
	}
	if cur != p.Dst {
		t.Fatalf("path %s ended at %v, want %v", p.Fingerprint, cur, p.Dst)
	}
}
