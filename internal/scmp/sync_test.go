package scmp_test

import (
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/core"
	"sciera/internal/scmp"
	"sciera/internal/simnet"
	"sciera/internal/topology"
)

// TestPingSyncWaitsOnTheSimulator runs the blocking PingSync (what
// cmd/sciera -ping calls on real sockets) on the simulator: it steps the
// simulator itself, and the RTT it reports is the path's virtual one.
func TestPingSyncWaitsOnTheSimulator(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim)
	defer n.Close()

	resp, err := n.AttachResponder(lB)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Close()
	pinger, err := n.NewPinger(lA)
	if err != nil {
		t.Fatal(err)
	}
	defer pinger.Close()
	if !pinger.Addr().IsValid() {
		t.Error("pinger has no underlay address")
	}

	paths := n.Paths(lA, lB)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}

	rtt, err := pinger.PingSync(lB, resp.Addr().Addr(), paths[0], 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * time.Duration(paths[0].LatencyMS*float64(time.Millisecond))
	if rtt < want || rtt > want+20*time.Millisecond {
		t.Errorf("rtt = %v, want ~%v", rtt, want)
	}
}

// TestTracerouteOverPeeringLink runs a traceroute across a peering
// circuit: both boundary routers must answer router-alerted probes on
// the Peer-flagged path.
func TestTracerouteOverPeeringLink(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
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

	pinger, err := n.NewPinger(lA)
	if err != nil {
		t.Fatal(err)
	}
	defer pinger.Close()

	var hops []scmp.Hop
	var terr error
	pinger.Traceroute(lB, peer, 2*time.Second, func(h []scmp.Hop, err error) {
		hops, terr = h, err
	})
	sim.RunFor(30 * time.Second)
	if terr != nil {
		t.Fatal(terr)
	}
	if len(hops) != 2 {
		t.Fatalf("hops = %d, want 2 (one boundary router per side)", len(hops))
	}
	if hops[0].IA != lA || hops[1].IA != lB {
		t.Errorf("hop ASes = %v, %v; want lA, lB", hops[0].IA, hops[1].IA)
	}
	// The far side sits one 3ms peer link away.
	if hops[1].RTT < 6*time.Millisecond || hops[1].RTT > 26*time.Millisecond {
		t.Errorf("far hop RTT = %v, want ~6ms", hops[1].RTT)
	}
}
