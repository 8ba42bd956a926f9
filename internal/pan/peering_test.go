package pan_test

import (
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/core"
	"sciera/internal/pan"
	"sciera/internal/simnet"
	"sciera/internal/slayers"
	"sciera/internal/topology"
)

// newPeerNet builds the integration topology plus a direct peering
// link between the two leaves: 3ms vs 30ms via the cores.
func newPeerNet(t testing.TB, sim *simnet.Sim) *core.Network {
	t.Helper()
	topo := topology.New()
	for _, ia := range []addr.IA{c1, c2} {
		if err := topo.AddAS(topology.ASInfo{IA: ia, Core: true}); err != nil {
			t.Fatal(err)
		}
	}
	for _, ia := range []addr.IA{lA, lB} {
		if err := topo.AddAS(topology.ASInfo{IA: ia}); err != nil {
			t.Fatal(err)
		}
	}
	link := func(a, b addr.IA, typ topology.LinkType, lat float64) {
		if _, err := topo.AddLink(topology.LinkEnd{IA: a}, topology.LinkEnd{IA: b}, typ, lat, ""); err != nil {
			t.Fatal(err)
		}
	}
	link(c1, c2, topology.LinkCore, 20)
	link(c1, lA, topology.LinkParent, 5)
	link(c2, lB, topology.LinkParent, 5)
	link(lA, lB, topology.LinkPeer, 3)
	n, err := core.Build(topo, sim, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestPeeringPreferredByPolicies: both the hop-count and the latency
// policy must put the one-hop peering path first, and application
// traffic must flow over it end to end — including the reply, which the
// server sends by reversing the Peer-flagged path in flight.
func TestPeeringPreferredByPolicies(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := newPeerNet(t, sim)
	defer n.Close()

	hA := hostIn(t, n, lA)
	hB := hostIn(t, n, lB)

	server, err := hB.ListenUDP(0, pan.WithHandler(func(c *pan.Conn, msg pan.Message) {
		_, _ = c.WriteTo(msg.Payload, msg.From)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	for _, policy := range []pan.Policy{pan.Shortest{}, pan.Fastest{}} {
		client, err := hA.DialUDP(server.LocalAddr(), pan.WithPolicy(policy))
		if err != nil {
			t.Fatal(err)
		}
		paths, err := client.Paths(lB)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) < 2 {
			t.Fatalf("%s: only %d paths (peer + core expected)", policy.Name(), len(paths))
		}
		best := paths[0]
		if best.NumHops() != 1 || best.LatencyMS != 3 {
			t.Errorf("%s: best path = %d hops %.1f ms, want the 1-hop 3 ms peer path",
				policy.Name(), best.NumHops(), best.LatencyMS)
		}
		if !best.Raw.Infos[0].Peer {
			t.Errorf("%s: best path not Peer-flagged", policy.Name())
		}

		start := sim.Now()
		if _, err := client.Write([]byte("ping " + policy.Name())); err != nil {
			t.Fatal(err)
		}
		reply, err := client.Read()
		if err != nil {
			t.Fatal(err)
		}
		if string(reply) != "ping "+policy.Name() {
			t.Errorf("%s: reply = %q", policy.Name(), reply)
		}
		// Round trip over the 3ms peer link, far under the 60ms core
		// alternative.
		if rtt := sim.Now().Sub(start); rtt > 20*time.Millisecond {
			t.Errorf("%s: rtt %v suggests the core route was used", policy.Name(), rtt)
		}
		client.Close()
	}
}

// TestPeerLinkFailover injects a peering-circuit failure: the client is
// pinned to the 1-hop peer path by the Fastest policy; when the circuit
// dies, the boundary router's SCMP revocation flushes the cache and
// traffic fails over to the up-core-down route.
func TestPeerLinkFailover(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := newPeerNet(t, sim)
	defer n.Close()

	hA := hostIn(t, n, lA)
	hB := hostIn(t, n, lB)
	server, err := hB.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := hA.ListenUDP(0, pan.WithPolicy(pan.Fastest{}))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var revocations int
	client.OnSCMPError = func(_ *slayers.SCMP) { revocations++ }

	// Baseline: the peer circuit carries traffic.
	if _, err := client.WriteTo([]byte("via peer"), server.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if _, err := server.ReadFromTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// The peering circuit dies.
	for _, l := range n.Topo.Links() {
		if l.Type == topology.LinkPeer {
			if err := n.Topo.SetLinkUp(l.ID, false); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Stale cached peer path -> SCMP ExternalInterfaceDown -> flush;
	// after the next beaconing interval traffic rides the core route.
	if _, err := client.WriteTo([]byte("black hole"), server.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if _, err := server.ReadFromTimeout(500 * time.Millisecond); err == nil {
		t.Fatal("packet crossed the dead peering circuit")
	}
	if err := n.RefreshControlPlane(); err != nil {
		t.Fatal(err)
	}
	delivered := false
	for try := 0; try < 10 && !delivered; try++ {
		if _, err := client.WriteTo([]byte("rerouted"), server.LocalAddr()); err != nil {
			continue
		}
		msg, err := server.ReadFromTimeout(time.Second)
		delivered = err == nil && string(msg.Payload) == "rerouted"
	}
	if !delivered {
		t.Fatal("no failover from the peering circuit to the core route")
	}
	if revocations == 0 {
		t.Error("no SCMP revocation observed")
	}
	// The surviving best path is the 30ms core route, not the peer path.
	paths, err := client.Paths(lB)
	if err != nil {
		t.Fatal(err)
	}
	if paths[0].Raw.Infos[0].Peer {
		t.Error("revoked peer path still ranked first")
	}
}
