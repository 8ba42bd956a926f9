// Netcat is the third enablement case study (Section 5.2 / Appendix G):
// a UDP netcat whose sockets are drop-in replaced with SCION sockets —
// ListenUDP/DialUDP instead of the net package, nothing else changes.
//
//	go run ./examples/netcat            # demo: server + client in one process
//	go run ./examples/netcat -listen    # server only (prints its address)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"sciera/internal/addr"
	"sciera/internal/core"
	"sciera/internal/pan"
	"sciera/internal/simnet"
	"sciera/internal/topology"
)

var listenOnly = flag.Bool("listen", false, "run only the listener")

func main() {
	flag.Parse()

	// Substrate: two ASes over loopback UDP.
	topo := topology.New()
	a := addr.MustParseIA("71-1")
	b := addr.MustParseIA("71-2")
	must(topo.AddAS(topology.ASInfo{IA: a, Core: true}))
	must(topo.AddAS(topology.ASInfo{IA: b, Core: true}))
	_, err := topo.AddLink(topology.LinkEnd{IA: a}, topology.LinkEnd{IA: b}, topology.LinkCore, 3, "")
	must(err)
	net := simnet.NewUDPNet()
	defer net.Close()
	n, err := core.Build(topo, net, core.Options{Seed: 1})
	must(err)
	defer n.Close()

	dB, err := n.NewDaemon(b)
	must(err)
	hostB := pan.WithDaemon(net, dB)

	// The netcat listener: with the plain net package this would be
	// net.ListenUDP("udp", ...); the SCION version is the same shape.
	server, err := hostB.ListenUDP(0, pan.WithHandler(func(c *pan.Conn, msg pan.Message) {
		fmt.Printf("< %s: %s", msg.From, msg.Payload)
		_, _ = c.WriteTo(msg.Payload, msg.From) // echo back
	}))
	must(err)
	defer server.Close()
	fmt.Printf("listening on %s\n", server.LocalAddr())
	if *listenOnly {
		select {}
	}

	// The netcat dialer: net.DialUDP becomes host.DialUDP.
	dA, err := n.NewDaemon(a)
	must(err)
	hostA := pan.WithDaemon(net, dA)
	client, err := hostA.DialUDP(server.LocalAddr())
	must(err)
	defer client.Close()

	lines := []string{"hello over SCION\n", "still feels like netcat\n"}
	if fi, err := os.Stdin.Stat(); err == nil && fi.Mode()&os.ModeCharDevice == 0 {
		// Piped input: forward it instead of the demo lines.
		lines = nil
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			lines = append(lines, sc.Text()+"\n")
		}
	}
	for _, line := range lines {
		if _, err := client.Write([]byte(line)); err != nil {
			log.Fatal(err)
		}
		reply, err := client.Read()
		must(err)
		fmt.Printf("> echoed: %s", strings.TrimSuffix(string(reply), "\n")+"\n")
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
