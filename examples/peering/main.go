// Peering: demonstrate SCION's shortcut and peering-link paths
// (Section 2's "shortcuts and utilization of peering links"). Two
// research networks hang off different cores but run a direct peering
// circuit; two departments share a campus AS below the core. The
// example shows how the combinator surfaces both non-core crossings,
// how much latency they save over the core route, and that traffic
// actually flows across them.
//
//	go run ./examples/peering
package main

import (
	"fmt"
	"log"
	"time"

	"sciera/internal/addr"
	"sciera/internal/core"
	"sciera/internal/pan"
	"sciera/internal/simnet"
	"sciera/internal/topology"
)

func main() {
	// Topology: two cores 40ms apart; netA and netB peer directly
	// (6ms); the campus AS connects two departments (2ms each).
	//
	//	   core1 ========== core2
	//	   /    \              \
	//	campus   netA --peer-- netB
	//	 /  \
	//	dep1 dep2
	topo := topology.New()
	core1 := addr.MustParseIA("71-1")
	core2 := addr.MustParseIA("71-2")
	netA := addr.MustParseIA("71-10")
	netB := addr.MustParseIA("71-11")
	campus := addr.MustParseIA("71-20")
	dep1 := addr.MustParseIA("71-21")
	dep2 := addr.MustParseIA("71-22")

	for _, as := range []struct {
		ia   addr.IA
		core bool
		name string
	}{
		{core1, true, "core-1"}, {core2, true, "core-2"},
		{netA, false, "net-a"}, {netB, false, "net-b"},
		{campus, false, "campus"}, {dep1, false, "dep-1"}, {dep2, false, "dep-2"},
	} {
		must(topo.AddAS(topology.ASInfo{IA: as.ia, Core: as.core, Name: as.name}))
	}
	link := func(a, b addr.IA, typ topology.LinkType, ms float64) {
		_, err := topo.AddLink(topology.LinkEnd{IA: a}, topology.LinkEnd{IA: b}, typ, ms, "")
		must(err)
	}
	link(core1, core2, topology.LinkCore, 40)
	link(core1, netA, topology.LinkParent, 10)
	link(core2, netB, topology.LinkParent, 10)
	link(netA, netB, topology.LinkPeer, 6) // the peering circuit
	link(core1, campus, topology.LinkParent, 8)
	link(campus, dep1, topology.LinkParent, 2)
	link(campus, dep2, topology.LinkParent, 2)

	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n, err := core.Build(topo, sim, core.Options{Seed: 7})
	must(err)
	defer n.Close()

	// --- Peering link: netA -> netB ---------------------------------
	fmt.Println("netA -> netB (peering circuit between the networks):")
	for _, p := range n.Paths(netA, netB) {
		kind := "via core"
		if p.Raw.Infos[0].Peer {
			kind = "PEERING"
		}
		fmt.Printf("  %-8s %d hop(s), %5.1f ms: %s\n", kind, p.NumHops(), p.LatencyMS, p.Fingerprint)
	}

	// --- Shortcut: dep1 -> dep2 -------------------------------------
	fmt.Println("dep1 -> dep2 (shortcut at the shared campus AS):")
	for _, p := range n.Paths(dep1, dep2) {
		kind := "via core"
		if len(p.ASes()) == 3 && p.ASes()[1] == campus {
			kind = "SHORTCUT"
		}
		fmt.Printf("  %-8s %d hop(s), %5.1f ms: %s\n", kind, p.NumHops(), p.LatencyMS, p.Fingerprint)
	}

	// --- And the packets really take them ---------------------------
	dB, err := n.NewDaemon(netB)
	must(err)
	hostB := pan.WithDaemon(sim, dB)
	server, err := hostB.ListenUDP(0, pan.WithHandler(func(c *pan.Conn, msg pan.Message) {
		_, _ = c.WriteTo(append([]byte("peered: "), msg.Payload...), msg.From)
	}))
	must(err)
	defer server.Close()

	dA, err := n.NewDaemon(netA)
	must(err)
	hostA := pan.WithDaemon(sim, dA)
	// Fastest picks the 6ms peering circuit over the 60ms core route.
	client, err := hostA.DialUDP(server.LocalAddr(), pan.WithPolicy(pan.Fastest{}))
	must(err)
	defer client.Close()

	start := sim.Now() // virtual clock: the simulator compresses real time
	_, err = client.Write([]byte("hello neighbor"))
	must(err)
	reply, err := client.Read()
	must(err)
	rtt := sim.Now().Sub(start)
	fmt.Printf("client: %q, rtt %.0f ms (peering: ~12 ms; the core route would be ~120 ms)\n",
		reply, float64(rtt.Microseconds())/1000)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
