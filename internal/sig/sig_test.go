package sig_test

import (
	"net/netip"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/core"
	"sciera/internal/pan"
	"sciera/internal/sig"
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

// setup wires two SIGs serving 192.168.10.0/24 (in lA) and
// 192.168.20.0/24 (in lB).
func setup(t *testing.T) (*sig.Gateway, *sig.Gateway, *simnet.Sim, func()) {
	t.Helper()
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim)

	dA, err := n.NewDaemon(lA)
	if err != nil {
		t.Fatal(err)
	}
	dB, err := n.NewDaemon(lB)
	if err != nil {
		t.Fatal(err)
	}
	gwA, err := sig.New(pan.WithDaemon(sim, dA), sim)
	if err != nil {
		t.Fatal(err)
	}
	gwB, err := sig.New(pan.WithDaemon(sim, dB), sim)
	if err != nil {
		t.Fatal(err)
	}
	gwA.AddRoute(netip.MustParsePrefix("192.168.20.0/24"), gwB.SCIONAddr())
	gwB.AddRoute(netip.MustParsePrefix("192.168.10.0/24"), gwA.SCIONAddr())
	cleanup := func() {
		gwA.Close()
		gwB.Close()
		n.Close()
	}
	return gwA, gwB, sim, cleanup
}

func TestIPToSCIONToIP(t *testing.T) {
	gwA, gwB, sim, cleanup := setup(t)
	defer cleanup()

	// Two legacy IP hosts, one behind each SIG. They speak plain
	// datagrams addressed by IP; neither knows SCION exists.
	alice, err := sig.NewClient(sim, gwA, netip.MustParseAddr("192.168.10.5"))
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	bob, err := sig.NewClient(sim, gwB, netip.MustParseAddr("192.168.20.7"))
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()

	if err := alice.Send(netip.MustParseAddrPort("192.168.20.7:9000"), []byte("legacy hello")); err != nil {
		t.Fatal(err)
	}
	src, payload, err := bob.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "legacy hello" {
		t.Errorf("payload = %q", payload)
	}
	if src.Addr() != netip.MustParseAddr("192.168.10.5") {
		t.Errorf("src = %v", src)
	}

	// And the reverse direction.
	if err := bob.Send(netip.AddrPortFrom(src.Addr(), src.Port()), []byte("legacy reply")); err != nil {
		t.Fatal(err)
	}
	_, payload, err = alice.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "legacy reply" {
		t.Errorf("reply = %q", payload)
	}

	if gwA.Metrics().Encapsulated.Load() != 1 || gwA.Metrics().Decapsulated.Load() != 1 {
		t.Errorf("gwA metrics: %+v", gwA.Metrics())
	}
	if gwB.Metrics().Encapsulated.Load() != 1 || gwB.Metrics().Decapsulated.Load() != 1 {
		t.Errorf("gwB metrics: %+v", gwB.Metrics())
	}
}

func TestLongestPrefixWins(t *testing.T) {
	gwA, gwB, sim, cleanup := setup(t)
	defer cleanup()
	// A more specific /32 for one host pointing somewhere that drops:
	// route it to gwA itself (no such host registered -> NoRoute at
	// decap, proving the /32 was preferred over the /24).
	gwA.AddRoute(netip.MustParsePrefix("192.168.20.9/32"), gwA.SCIONAddr())

	alice, err := sig.NewClient(sim, gwA, netip.MustParseAddr("192.168.10.5"))
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	if err := alice.Send(netip.MustParseAddrPort("192.168.20.9:1"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Second)
	if gwA.Metrics().NoRoute.Load() == 0 {
		t.Error("specific route not honoured")
	}
	if gwB.Metrics().Decapsulated.Load() != 0 {
		t.Error("traffic leaked to the /24 route")
	}
}

func TestUnroutableAndMalformed(t *testing.T) {
	gwA, _, sim, cleanup := setup(t)
	defer cleanup()
	alice, err := sig.NewClient(sim, gwA, netip.MustParseAddr("192.168.10.5"))
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	// No route for 10.9.9.9.
	if err := alice.Send(netip.MustParseAddrPort("10.9.9.9:1"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Second)
	if gwA.Metrics().NoRoute.Load() != 1 {
		t.Errorf("NoRoute = %d", gwA.Metrics().NoRoute.Load())
	}
	// Garbage at the tunnel ingress.
	junk, err := sim.Listen(netip.AddrPort{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = junk.Send([]byte("not a frame"), gwA.LegacyAddr())
	sim.RunFor(time.Second)
	if gwA.Metrics().Malformed.Load() != 1 {
		t.Errorf("Malformed = %d", gwA.Metrics().Malformed.Load())
	}
	// IPv6 rejected on the legacy plane.
	if err := alice.Send(netip.MustParseAddrPort("[fd00::1]:1"), []byte("x")); err == nil {
		t.Error("IPv6 legacy destination accepted")
	}
}
