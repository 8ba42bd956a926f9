// Sciencedmz demonstrates the SCIERA Science-DMZ of Section 4.7.1: a
// KREONET-like ring with capacity-limited parallel circuits, a
// LightningFilter protecting the transfer node, and a Hercules bulk
// transfer striping a dataset across disjoint paths — first over a
// single path, then over four, showing the aggregated throughput.
//
//	go run ./examples/sciencedmz
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"sciera/internal/addr"
	"sciera/internal/core"
	"sciera/internal/hercules"
	"sciera/internal/lightningfilter"
	"sciera/internal/pan"
	"sciera/internal/simnet"
	"sciera/internal/slayers"
	"sciera/internal/topology"
)

func main() {
	// Science-DMZ topology: the HPC site and the data source connect
	// through two cores joined by four parallel 200 Mbps circuits.
	topo := topology.New()
	c1 := addr.MustParseIA("71-2:0:3d") // Singapore core
	c2 := addr.MustParseIA("71-2:0:3e") // Amsterdam core
	hpc := addr.MustParseIA("71-50999") // KAUST-like HPC site
	src := addr.MustParseIA("71-2:0:18")
	must(topo.AddAS(topology.ASInfo{IA: c1, Core: true, Name: "core-SG"}))
	must(topo.AddAS(topology.ASInfo{IA: c2, Core: true, Name: "core-AMS"}))
	must(topo.AddAS(topology.ASInfo{IA: hpc, Name: "HPC site"}))
	must(topo.AddAS(topology.ASInfo{IA: src, Name: "data source"}))
	for i, name := range []string{"KREONET", "CAE-1", "KAUST-I", "KAUST-II"} {
		l, err := topo.AddLink(topology.LinkEnd{IA: c1}, topology.LinkEnd{IA: c2},
			topology.LinkCore, 80+float64(3*i), name)
		must(err)
		l.SetBandwidth(200)
	}
	la, err := topo.AddLink(topology.LinkEnd{IA: c1}, topology.LinkEnd{IA: src}, topology.LinkParent, 2, "")
	must(err)
	la.SetBandwidth(10_000)
	lb, err := topo.AddLink(topology.LinkEnd{IA: c2}, topology.LinkEnd{IA: hpc}, topology.LinkParent, 2, "")
	must(err)
	lb.SetBandwidth(10_000)

	// The DES enforces link capacities, so throughput numbers reflect
	// the circuits, not the host machine.
	sim := simnet.NewSim(time.Unix(1_737_000_000, 0))
	n, err := core.Build(topo, sim, core.Options{Seed: 7})
	must(err)
	defer n.Close()

	// The HPC border runs a LightningFilter: only authenticated traffic
	// from the collaboration's ISD reaches the transfer node.
	master := []byte("hpc-drkey-master")
	filter, err := lightningfilter.New(lightningfilter.Config{
		Local:       hpc,
		Master:      master,
		AllowedISDs: []addr.ISD{71},
		Now:         sim.Now,
	})
	must(err)
	demo := &slayers.Packet{
		Hdr: slayers.SCION{DstIA: hpc, SrcIA: src},
		UDP: &slayers.UDP{},
	}
	sealed, err := lightningfilter.Seal(master, sim.Now(), 3*time.Hour, src, []byte("dataset chunk"))
	must(err)
	demo.Payload = sealed
	fmt.Printf("lightningfilter verdict for authenticated packet: %v\n", filter.Check(demo))
	demo.Payload = []byte("probe")
	fmt.Printf("lightningfilter verdict for unauthenticated packet: %v\n", filter.Check(demo))

	// Hercules transfer: 2 MB dataset, single path vs four paths.
	dSrc, err := n.NewDaemon(src)
	must(err)
	dHpc, err := n.NewDaemon(hpc)
	must(err)
	hostSrc := pan.WithDaemon(sim, dSrc)
	hostHpc := pan.WithDaemon(sim, dHpc)
	recv, err := hercules.Receive(hostHpc, 0)
	must(err)
	defer recv.Close()

	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(1)).Read(data)

	for _, paths := range []int{1, 4} {
		stats, err := hercules.Send(hostSrc, recv.Addr(), uint32(paths), data, hercules.Options{
			MaxPaths: paths,
			Window:   64,
			RTO:      400 * time.Millisecond,
		})
		must(err)
		res := <-recv.Results()
		fmt.Printf("transfer over %d path(s): %.1f Mbps (%d chunks, %d retransmits, %d bytes verified)\n",
			stats.PathsUsed, stats.ThroughputMbps, stats.Chunks, stats.Retransmits, len(res.Data))
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
