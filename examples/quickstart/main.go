// Quickstart: bring up a small SCION network on real loopback UDP
// sockets, open a path-aware socket in one AS, and exchange messages
// with a server in another AS — the "it just works" experience of
// Section 4.1, in one file.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"sciera/internal/addr"
	"sciera/internal/core"
	"sciera/internal/pan"
	"sciera/internal/simnet"
	"sciera/internal/topology"
)

func main() {
	// 1. Describe a topology: two core ASes and two leaves.
	//
	//	  core1 ==== core2
	//	    |          |
	//	  leafA      leafB
	topo := topology.New()
	core1 := addr.MustParseIA("71-1")
	core2 := addr.MustParseIA("71-2")
	leafA := addr.MustParseIA("71-10")
	leafB := addr.MustParseIA("71-11")
	must(topo.AddAS(topology.ASInfo{IA: core1, Core: true, Name: "core-1"}))
	must(topo.AddAS(topology.ASInfo{IA: core2, Core: true, Name: "core-2"}))
	must(topo.AddAS(topology.ASInfo{IA: leafA, Name: "leaf-a"}))
	must(topo.AddAS(topology.ASInfo{IA: leafB, Name: "leaf-b"}))
	link := func(a, b addr.IA, typ topology.LinkType) {
		_, err := topo.AddLink(topology.LinkEnd{IA: a}, topology.LinkEnd{IA: b}, typ, 5, "")
		must(err)
	}
	link(core1, core2, topology.LinkCore)
	link(core1, leafA, topology.LinkParent)
	link(core2, leafB, topology.LinkParent)

	// 2. Build the network on real UDP loopback sockets: border
	// routers, control services, beaconing — the whole stack.
	net := simnet.NewUDPNet()
	defer net.Close()
	n, err := core.Build(topo, net, core.Options{Seed: 1})
	must(err)
	defer n.Close()
	fmt.Println("network up: 4 ASes, full SCION control and data plane on loopback UDP")

	// 3. A server in leafB listens on a SCION/UDP socket; its handler
	// answers each datagram over the reversed path it arrived on.
	dB, err := n.NewDaemon(leafB)
	must(err)
	hostB := pan.WithDaemon(net, dB)
	server, err := hostB.ListenUDP(0, pan.WithHandler(func(c *pan.Conn, msg pan.Message) {
		fmt.Printf("server: %q from %s\n", msg.Payload, msg.From)
		_, _ = c.WriteTo(append([]byte("echo: "), msg.Payload...), msg.From)
	}))
	must(err)
	defer server.Close()

	// 4. A client in leafA inspects its paths and dials across.
	dA, err := n.NewDaemon(leafA)
	must(err)
	hostA := pan.WithDaemon(net, dA)
	client, err := hostA.DialUDP(server.LocalAddr(), pan.WithPolicy(pan.Fastest{}))
	must(err)
	defer client.Close()

	paths, err := client.Paths(leafB)
	must(err)
	fmt.Printf("client: %d path(s) to %s\n", len(paths), leafB)
	for _, p := range paths {
		fmt.Printf("  %d hops, %.1f ms one-way: %s\n", p.NumHops(), p.LatencyMS, p.Fingerprint)
	}

	if _, err := client.Write([]byte("hello sciera")); err != nil {
		log.Fatal(err)
	}
	reply, err := client.Read()
	must(err)
	fmt.Printf("client: got %q\n", reply)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
