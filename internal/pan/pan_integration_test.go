package pan_test

import (
	"net/netip"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/bootstrap"
	"sciera/internal/combinator"
	"sciera/internal/core"
	"sciera/internal/dispatcher"
	"sciera/internal/pan"
	"sciera/internal/simnet"
	"sciera/internal/slayers"
	"sciera/internal/topology"
)

var (
	c1 = addr.MustParseIA("71-1")
	c2 = addr.MustParseIA("71-2")
	lA = addr.MustParseIA("71-10")
	lB = addr.MustParseIA("71-11")
)

func buildNet(t testing.TB, sim *simnet.Sim, opts core.Options) *core.Network {
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
	link(c1, c2, topology.LinkCore, 50)
	link(c1, lA, topology.LinkParent, 5)
	link(c2, lB, topology.LinkParent, 5)
	n, err := core.Build(topo, sim, opts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func hostIn(t *testing.T, n *core.Network, ia addr.IA) *pan.Host {
	t.Helper()
	d, err := n.NewDaemon(ia)
	if err != nil {
		t.Fatal(err)
	}
	return pan.WithDaemon(n.Transport, d)
}

func TestDialAndEcho(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim, core.Options{Seed: 1})
	defer n.Close()

	hA := hostIn(t, n, lA)
	hB := hostIn(t, n, lB)

	// The server is its socket's handler; the client's blocking Read
	// runs the simulator, and with it the handler, until the echo is in.
	server, err := hB.ListenUDP(0, pan.WithHandler(func(c *pan.Conn, msg pan.Message) {
		if _, err := c.WriteTo(append([]byte("re:"), msg.Payload...), msg.From); err != nil {
			t.Errorf("server write: %v", err)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	client, err := hA.DialUDP(server.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	reply, err := client.Read()
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "re:hello" {
		t.Fatalf("reply = %q", reply)
	}
	if client.LocalAddr().IA != lA || client.RemoteAddr().IA != lB {
		t.Errorf("addresses: %v -> %v", client.LocalAddr(), client.RemoteAddr())
	}
	// The server answered without any path lookup of its own (reply
	// path), so its daemon saw no lookups for lA.
	lookups, _ := hB.Daemon().Stats()
	if lookups != 0 {
		t.Errorf("server performed %d lookups, want 0 (reply-path answering)", lookups)
	}
}

func TestPolicyOrdering(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim, core.Options{Seed: 1})
	defer n.Close()

	hA := hostIn(t, n, lA)
	conn, err := hA.ListenUDP(0, pan.WithPolicy(pan.Fastest{}))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	paths, err := conn.Paths(lB)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("paths = %d, want >= 2 (parallel core links)", len(paths))
	}
	// Fastest first: the 20ms core link beats the 50ms one.
	if paths[0].LatencyMS >= paths[1].LatencyMS {
		t.Errorf("fastest policy ordering: %v then %v", paths[0].LatencyMS, paths[1].LatencyMS)
	}

	// Disjoint policy ranks a path disjoint from the first highest.
	dis := pan.MostDisjoint{References: []*combinator.Path{paths[0]}}
	ordered := dis.Order(paths)
	if ordered[0].Fingerprint == paths[0].Fingerprint && len(ordered) > 1 {
		t.Error("most-disjoint policy returned the reference path first")
	}

	// Sequence policy filters exactly.
	seq := pan.ParseSequence(lA.String() + " " + c1.String() + " " + c2.String() + " " + lB.String())
	filtered := seq.Order(paths)
	for _, p := range filtered {
		if len(p.ASes()) != 4 {
			t.Errorf("sequence let through %v", p.ASes())
		}
	}
	// Wildcard sequence.
	seqW := pan.ParseSequence("0-0 0-0 0-0 0-0")
	if len(seqW.Order(paths)) != len(filtered) {
		t.Error("wildcard sequence mismatch")
	}

	// Interactive policy puts the chosen path first.
	inter := pan.Interactive{Choose: func(ps []*combinator.Path) int { return len(ps) - 1 }}
	io := inter.Order(paths)
	if io[0].Fingerprint != paths[len(paths)-1].Fingerprint {
		t.Error("interactive choice not honoured")
	}
}

func TestWriteToViaExplicitPath(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim, core.Options{Seed: 1})
	defer n.Close()

	hA := hostIn(t, n, lA)
	hB := hostIn(t, n, lB)
	server, _ := hB.ListenUDP(0)
	defer server.Close()
	client, _ := hA.ListenUDP(0)
	defer client.Close()

	paths, err := client.Paths(lB)
	if err != nil || len(paths) < 2 {
		t.Fatalf("paths: %d %v", len(paths), err)
	}
	// Send one message over each path explicitly.
	for i, p := range paths {
		if _, err := client.WriteToVia([]byte{byte(i)}, server.LocalAddr(), p); err != nil {
			t.Fatal(err)
		}
	}
	for range paths {
		if _, err := server.ReadFromTimeout(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

func TestASInternalTraffic(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim, core.Options{Seed: 1})
	defer n.Close()

	h := hostIn(t, n, lA)
	a, _ := h.ListenUDP(0)
	defer a.Close()
	b, _ := h.ListenUDP(0)
	defer b.Close()
	if _, err := a.WriteTo([]byte("local"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	msg, err := b.ReadFromTimeout(5 * time.Second)
	if err != nil || string(msg.Payload) != "local" {
		t.Fatalf("local delivery: %v %q", err, msg.Payload)
	}
}

func TestDispatcherMode(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim, core.Options{Seed: 1, UseDispatcher: true})
	defer n.Close()

	hA := hostIn(t, n, lA)
	hB := hostIn(t, n, lB)

	dispB, err := dispatcher.Start(sim, sim.AllocAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer dispB.Close()
	dispA, err := dispatcher.Start(sim, sim.AllocAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer dispA.Close()

	server, err := hB.ListenUDP(7777, pan.WithDispatcher(dispB), pan.WithHandler(func(c *pan.Conn, msg pan.Message) {
		_, _ = c.WriteTo(msg.Payload, msg.From)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	client, err := hA.DialUDP(server.LocalAddr(), pan.WithDispatcher(dispA))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write([]byte("via dispatchers")); err != nil {
		t.Fatal(err)
	}
	reply, err := client.Read()
	if err != nil || string(reply) != "via dispatchers" {
		t.Fatalf("reply: %q %v", reply, err)
	}
	if dispB.Forwarded.Load() == 0 || dispA.Forwarded.Load() == 0 {
		t.Errorf("dispatcher forward counts: %d/%d", dispB.Forwarded.Load(), dispA.Forwarded.Load())
	}
	// Port collision on the shared dispatcher is rejected.
	if _, err := hB.ListenUDP(7777, pan.WithDispatcher(dispB)); err == nil {
		t.Error("dispatcher port collision accepted")
	}
}

func TestStandaloneModeBootstrapsItself(t *testing.T) {
	// Certificates and TRCs are issued and checked on the simulator's
	// clock, so any start date works.
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n := buildNet(t, sim, core.Options{Seed: 1, WithPKI: true})
	defer n.Close()

	// The AS runs a bootstrap server + LAN hints for its campus.
	rtr, _ := n.Router(lA)
	svc, _ := n.ControlService(lA)
	bs := &bootstrap.Server{
		Topology: bootstrap.TopologyFile{
			IA:          lA,
			RouterAddr:  rtr.LocalAddr(),
			ControlAddr: svc.Addr(),
		},
		Signer: n.Signer(lA),
		TRCs:   n.TRCs(),
	}
	if err := bs.Start(sim, netip.AddrPortFrom(sim.AllocAddr(), bootstrap.PortBootstrap)); err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	lan, err := bootstrap.StartLAN(sim, sim.AllocAddr, bootstrap.LANConfig{
		BootstrapServer: bs.Addr(),
		DHCPVIVO:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lan.Close()

	// The application has NO pre-installed components: AutoInit falls
	// back to standalone and bootstraps in-process, on the simulator's
	// clock.
	var hA *pan.Host
	var initErr error
	if err := simnet.Await(sim, func(done func()) {
		pan.AutoInit(sim, nil, bootstrap.Env{}, func(h *pan.Host, err error) { hA, initErr = h, err; done() })
	}); err != nil {
		t.Fatal(err)
	}
	if initErr != nil {
		t.Fatal(initErr)
	}
	defer hA.Close()
	if hA.Mode() != pan.ModeStandalone {
		t.Errorf("mode = %v", hA.Mode())
	}
	if hA.LocalIA() != lA {
		t.Errorf("IA = %v", hA.LocalIA())
	}

	// And it can talk across the network immediately.
	hB := hostIn(t, n, lB)
	server, _ := hB.ListenUDP(0)
	defer server.Close()
	client, err := hA.DialUDP(server.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write([]byte("just works")); err != nil {
		t.Fatal(err)
	}
	msg, err := server.ReadFromTimeout(5 * time.Second)
	if err != nil || string(msg.Payload) != "just works" {
		t.Fatalf("standalone traffic: %q %v", msg.Payload, err)
	}
}

func TestInstantFailover(t *testing.T) {
	// Section 4.7: "switching paths instantly if performance worsens".
	// A link on the active path dies; the SCMP revocation flushes the
	// daemon cache and the very next write takes the surviving circuit.
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim, core.Options{Seed: 1})
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

	// Baseline delivery over the fastest (20ms) circuit.
	if _, err := client.WriteTo([]byte("one"), server.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if _, err := server.ReadFromTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Kill the 20ms core circuit (data plane only: cached paths go
	// stale, exactly the failure mode SCMP revocation handles).
	for _, l := range n.Topo.Links() {
		if l.Type == topology.LinkCore && l.LatencyMS == 20 {
			if err := n.Topo.SetLinkUp(l.ID, false); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The next write rides the stale path and dies; the router's SCMP
	// ExternalInterfaceDown flushes the cache. Refresh the control
	// plane (the periodic beaconing) and retry: traffic must flow over
	// the surviving 50ms circuit without re-dialing.
	if _, err := client.WriteTo([]byte("lost"), server.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if _, err := server.ReadFromTimeout(500 * time.Millisecond); err == nil {
		t.Fatal("packet crossed a dead circuit")
	}
	if err := n.RefreshControlPlane(); err != nil {
		t.Fatal(err)
	}
	delivered := false
	for try := 0; try < 10 && !delivered; try++ {
		if _, err := client.WriteTo([]byte("failover"), server.LocalAddr()); err != nil {
			continue
		}
		msg, err := server.ReadFromTimeout(time.Second)
		delivered = err == nil && string(msg.Payload) == "failover"
	}
	if !delivered {
		t.Fatal("no failover to the surviving circuit")
	}
	if revocations == 0 {
		t.Error("no SCMP revocation observed")
	}
}

func TestAutoInitPrefersSharedDaemon(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim, core.Options{Seed: 1})
	defer n.Close()
	d, err := n.NewDaemon(lA)
	if err != nil {
		t.Fatal(err)
	}
	var h *pan.Host
	pan.AutoInit(sim, d, bootstrap.Env{}, func(got *pan.Host, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		h = got
	})
	if h == nil || h.Mode() != pan.ModeDaemon {
		t.Fatalf("host = %+v", h)
	}
}

// TestCloseDuringDelivery closes a socket while the event loop is still
// delivering to it: the close must neither race with the receive-queue
// send nor let it hit the closed channel. Meaningful under -race.
func TestCloseDuringDelivery(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim, core.Options{Seed: 1})
	defer n.Close()

	h := hostIn(t, n, lA)
	a, _ := h.ListenUDP(0)
	defer a.Close()
	for round := 0; round < 50; round++ {
		b, err := h.ListenUDP(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := a.WriteTo([]byte("x"), b.LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := b.ReadFromTimeout(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		b.Close() // the rest of the burst is still arriving
	}
}
