package scmp_test

import (
	"errors"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/core"
	"sciera/internal/scmp"
	"sciera/internal/simnet"
	"sciera/internal/topology"
)

var (
	c1 = addr.MustParseIA("71-1")
	c2 = addr.MustParseIA("71-2")
	lA = addr.MustParseIA("71-10")
	lB = addr.MustParseIA("71-11")
)

func buildNet(t testing.TB, sim *simnet.Sim) *core.Network {
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
	n, err := core.Build(topo, sim, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestPingRTTMatchesPathLatency(t *testing.T) {
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

	paths := n.Paths(lA, lB)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	var rtt time.Duration
	var perr error
	pinger.Ping(lB, resp.Addr().Addr(), paths[0], 5*time.Second, func(d time.Duration, err error) {
		rtt, perr = d, err
	})
	sim.RunFor(10 * time.Second)
	if perr != nil {
		t.Fatal(perr)
	}
	// Path latency is 30ms one way; RTT should be ~60ms plus small
	// intra-AS hops.
	want := time.Duration(2 * paths[0].LatencyMS * float64(time.Millisecond))
	if rtt < want || rtt > want+5*time.Millisecond {
		t.Errorf("rtt = %v, want ≈ %v", rtt, want)
	}
	if resp.Answered() != 1 {
		t.Errorf("answered = %d", resp.Answered())
	}
}

// cutCoreLink sets the core link down without refreshing the control
// plane: paths across it go stale, and c1 answers what it cannot
// forward with ExternalInterfaceDown.
func cutCoreLink(t *testing.T, n *core.Network) {
	t.Helper()
	for _, l := range n.Topo.Links() {
		if l.Type == topology.LinkCore {
			if err := n.Topo.SetLinkUp(l.ID, false); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("no core link")
}

func TestPingTimeoutOnDeadLink(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim)
	defer n.Close()
	resp, _ := n.AttachResponder(lB)
	defer resp.Close()
	pinger, _ := n.NewPinger(lA)
	defer pinger.Close()

	paths := n.Paths(lA, lB)
	cutCoreLink(t, n)
	var perr error
	fired := false
	pinger.Ping(lB, resp.Addr().Addr(), paths[0], 2*time.Second, func(d time.Duration, err error) {
		perr, fired = err, true
	})
	sim.RunFor(5 * time.Second)
	if !fired {
		t.Fatal("callback did not fire")
	}
	// The failure comes from the SCMP error, not the timeout: the
	// error arrives within the path's one-way latency.
	if perr == nil || errors.Is(perr, scmp.ErrTimeout) {
		t.Fatalf("ping over a dead link: err %v, want an SCMP error", perr)
	}
}

// TestTracerouteOnDeadLink: past the cut every hop's request draws an
// SCMP error quoting it, which resolves the hop at once, so the walk
// ends within 100 ms of virtual time instead of waiting out a 2 s
// timeout per hop. Those hops read zero IA and zero RTT.
func TestTracerouteOnDeadLink(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim)
	defer n.Close()
	pinger, err := n.NewPinger(lA)
	if err != nil {
		t.Fatal(err)
	}
	defer pinger.Close()

	p := n.Paths(lA, lB)[0] // lA -> c1 -> c2 -> lB
	cutCoreLink(t, n)
	start := sim.Now()
	calls := 0
	var took time.Duration
	var hops []scmp.Hop
	var terr error
	pinger.Traceroute(lB, p, 2*time.Second, func(h []scmp.Hop, err error) {
		calls++
		took, hops, terr = sim.Now().Sub(start), h, err
	})
	sim.RunFor(30 * time.Second)
	if calls != 1 || terr != nil {
		t.Fatalf("%d callbacks, err %v; want one without error", calls, terr)
	}
	if took > 100*time.Millisecond {
		t.Errorf("traceroute took %v of virtual time, want ≤ 100ms", took)
	}
	if len(hops) != len(p.Raw.Hops) {
		t.Fatalf("hops = %d, want %d", len(hops), len(p.Raw.Hops))
	}
	if hops[0].IA != lA {
		t.Errorf("first hop from %v, want lA", hops[0].IA)
	}
	if last := hops[len(hops)-1]; last != (scmp.Hop{}) {
		t.Errorf("hop past the cut: %+v, want zero IA and RTT", last)
	}
	cut := false
	for i, h := range hops {
		switch {
		case h.IA == 0 && h.RTT != 0:
			t.Errorf("hop %d unanswered with RTT %v", i, h.RTT)
		case h.IA == 0:
			cut = true
		case cut:
			t.Errorf("hop %d answered from %v past the cut", i, h.IA)
		}
	}
}

func TestPingUnknownDestinationTimesOut(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim)
	defer n.Close()
	pinger, _ := n.NewPinger(lA)
	defer pinger.Close()

	paths := n.Paths(lA, lB)
	var perr error
	// No responder attached in lB: the request vanishes at delivery.
	pinger.Ping(lB, sim.AllocAddr(), paths[0], time.Second, func(d time.Duration, err error) {
		perr = err
	})
	sim.RunFor(5 * time.Second)
	if perr != scmp.ErrTimeout {
		t.Fatalf("err = %v, want scmp.ErrTimeout", perr)
	}
}

func TestConcurrentProbesKeepSequenceApart(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim)
	defer n.Close()
	respB, _ := n.AttachResponder(lB)
	defer respB.Close()
	respC1, _ := n.AttachResponder(c1)
	defer respC1.Close()
	pinger, _ := n.NewPinger(lA)
	defer pinger.Close()

	pathsB := n.Paths(lA, lB)
	pathsC := n.Paths(lA, c1)
	if len(pathsB) == 0 || len(pathsC) == 0 {
		t.Fatal("missing paths")
	}
	var rttB, rttC time.Duration
	pinger.Ping(lB, respB.Addr().Addr(), pathsB[0], 5*time.Second, func(d time.Duration, err error) {
		if err != nil {
			t.Errorf("B: %v", err)
		}
		rttB = d
	})
	pinger.Ping(c1, respC1.Addr().Addr(), pathsC[0], 5*time.Second, func(d time.Duration, err error) {
		if err != nil {
			t.Errorf("C1: %v", err)
		}
		rttC = d
	})
	sim.RunFor(10 * time.Second)
	if rttB == 0 || rttC == 0 {
		t.Fatal("probes incomplete")
	}
	if rttC >= rttB {
		t.Errorf("nearer AS slower: c1=%v lB=%v", rttC, rttB)
	}
}

func TestTracerouteWalksEveryHop(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim)
	defer n.Close()
	pinger, err := n.NewPinger(lA)
	if err != nil {
		t.Fatal(err)
	}
	defer pinger.Close()

	paths := n.Paths(lA, lB)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	p := paths[0] // lA -> c1 -> c2 -> lB
	var hops []scmp.Hop
	var terr error
	pinger.Traceroute(lB, p, 2*time.Second, func(h []scmp.Hop, err error) {
		hops, terr = h, err
	})
	sim.RunFor(30 * time.Second)
	if terr != nil {
		t.Fatal(terr)
	}
	if len(hops) != len(p.Raw.Hops) {
		t.Fatalf("hops = %d, want %d", len(hops), len(p.Raw.Hops))
	}
	// Expected AS set: each raw hop belongs to an AS on the path.
	wantASes := map[addr.IA]bool{lA: true, c1: true, c2: true, lB: true}
	var prev time.Duration
	for i, h := range hops {
		if h.IA == 0 {
			t.Errorf("hop %d unanswered", i)
			continue
		}
		if !wantASes[h.IA] {
			t.Errorf("hop %d from unexpected AS %v", i, h.IA)
		}
		if h.RTT < prev {
			// RTTs are monotone along the forward path (each router is
			// farther away than the previous one).
			t.Errorf("hop %d RTT %v < previous %v", i, h.RTT, prev)
		}
		prev = h.RTT
	}
	// First hop answers from the source AS, last from the destination.
	if hops[0].IA != lA {
		t.Errorf("first hop from %v", hops[0].IA)
	}
	if hops[len(hops)-1].IA != lB {
		t.Errorf("last hop from %v", hops[len(hops)-1].IA)
	}
}

func BenchmarkPingRoundTrip(b *testing.B) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(b, sim)
	defer n.Close()
	resp, _ := n.AttachResponder(lB)
	defer resp.Close()
	pinger, _ := n.NewPinger(lA)
	defer pinger.Close()
	paths := n.Paths(lA, lB)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok := false
		pinger.Ping(lB, resp.Addr().Addr(), paths[0], 5*time.Second, func(d time.Duration, err error) {
			ok = err == nil
		})
		sim.RunFor(time.Second)
		if !ok {
			b.Fatal("ping failed")
		}
	}
}
