// Sigbridge demonstrates the SCION-IP gateway — the mechanism behind
// every *production* SCION use case the paper's introduction describes:
// "all the productive use cases make use of IP-to-SCION-to-IP
// translation by SCION-IP-Gateways (SIG), such that applications are
// unaware of the NGN communication."
//
// Two legacy IPv4 hosts exchange datagrams; neither contains a line of
// SCION code. Their SIGs encapsulate the traffic over the SCION
// inter-domain path — with hop-field MAC verification at every border
// router on the way.
//
//	go run ./examples/sigbridge
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"sciera/internal/addr"
	"sciera/internal/core"
	"sciera/internal/pan"
	"sciera/internal/sig"
	"sciera/internal/simnet"
	"sciera/internal/topology"
)

func main() {
	// A finance-network-like pair of ASes (the SSFN story): two sites
	// joined over two core ASes.
	topo := topology.New()
	c1 := addr.MustParseIA("64-1")
	c2 := addr.MustParseIA("64-2")
	bankA := addr.MustParseIA("64-100")
	bankB := addr.MustParseIA("64-200")
	must(topo.AddAS(topology.ASInfo{IA: c1, Core: true, Name: "core-1"}))
	must(topo.AddAS(topology.ASInfo{IA: c2, Core: true, Name: "core-2"}))
	must(topo.AddAS(topology.ASInfo{IA: bankA, Name: "site-A"}))
	must(topo.AddAS(topology.ASInfo{IA: bankB, Name: "site-B"}))
	link := func(a, b addr.IA, typ topology.LinkType) {
		_, err := topo.AddLink(topology.LinkEnd{IA: a}, topology.LinkEnd{IA: b}, typ, 4, "")
		must(err)
	}
	link(c1, c2, topology.LinkCore)
	link(c1, bankA, topology.LinkParent)
	link(c2, bankB, topology.LinkParent)

	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n, err := core.Build(topo, sim, core.Options{Seed: 3})
	must(err)
	defer n.Close()

	// One SIG per site, announcing its internal prefix to the peer.
	dA, err := n.NewDaemon(bankA)
	must(err)
	dB, err := n.NewDaemon(bankB)
	must(err)
	gwA, err := sig.New(pan.WithDaemon(sim, dA), sim)
	must(err)
	defer gwA.Close()
	gwB, err := sig.New(pan.WithDaemon(sim, dB), sim)
	must(err)
	defer gwB.Close()
	gwA.AddRoute(netip.MustParsePrefix("172.16.20.0/24"), gwB.SCIONAddr())
	gwB.AddRoute(netip.MustParsePrefix("172.16.10.0/24"), gwA.SCIONAddr())
	fmt.Println("SIGs up: 172.16.10.0/24 <-> 172.16.20.0/24 bridged over SCION")

	// Legacy applications: plain IP datagrams, zero SCION awareness.
	atm, err := sig.NewClient(sim, gwA, netip.MustParseAddr("172.16.10.5"))
	must(err)
	defer atm.Close()
	ledger, err := sig.NewClient(sim, gwB, netip.MustParseAddr("172.16.20.9"))
	must(err)
	defer ledger.Close()

	// Each Recv waits on the simulator, which carries the datagram
	// through both SIGs and the SCION path in virtual time.
	must(atm.Send(netip.MustParseAddrPort("172.16.20.9:7000"), []byte("withdrawal #42")))
	src, payload, err := ledger.Recv()
	must(err)
	fmt.Printf("ledger: %q from %s\n", payload, src)
	must(ledger.Send(src, []byte("ack:"+string(payload))))
	_, reply, err := atm.Recv()
	must(err)
	fmt.Printf("atm: got %q\n", reply)
	fmt.Printf("gateway A encapsulated %d, decapsulated %d packets\n",
		gwA.Metrics().Encapsulated.Load(), gwA.Metrics().Decapsulated.Load())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
