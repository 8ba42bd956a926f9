// Command sciera brings up the full SCIERA deployment in-process on
// real loopback UDP sockets and operates on it: list the topology, show
// paths between ASes (like `scion showpaths`), and ping across the
// network over the three multiping path types.
//
//	sciera -topo                         # AS and circuit inventory
//	sciera -showpaths 71-225,71-2:0:5c   # paths UVa -> UFMS
//	sciera -ping 71-20965,71-2:0:3b -n 4 # SCMP echo GEANT -> Daejeon
//	sciera -metrics-addr 127.0.0.1:9090  # serve Prometheus /metrics
//	sciera -ping ... -telemetry-dump t.json  # JSON snapshot at exit
package main

import (
	"flag"
	"fmt"
	stdnet "net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/core"
	"sciera/internal/dispatcher"
	"sciera/internal/pan"
	"sciera/internal/scenario"
	_ "sciera/internal/sciera" // registers the builtin "sciera" scenario
	"sciera/internal/scmp"
	"sciera/internal/simnet"
)

func main() {
	var (
		topoFlag    = flag.Bool("topo", false, "print the deployment inventory")
		showpaths   = flag.String("showpaths", "", "show paths: <src-ia>,<dst-ia>")
		ping        = flag.String("ping", "", "SCMP ping: <src-ia>,<dst-ia>")
		trace       = flag.String("traceroute", "", "SCMP traceroute: <src-ia>,<dst-ia>")
		count       = flag.Int("n", 3, "ping count")
		seed        = flag.Int64("seed", 42, "control plane seed")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics on this TCP address and wait for Ctrl-C")
		telemDump   = flag.String("telemetry-dump", "", "write the final telemetry snapshot as JSON to this file")
	)
	flag.Parse()

	s := scenario.MustBuiltin("sciera")
	if *topoFlag {
		printTopo(s)
		return
	}
	if *showpaths == "" && *ping == "" && *trace == "" && *metricsAddr == "" && *telemDump == "" {
		flag.Usage()
		os.Exit(2)
	}

	topo, err := s.Build()
	fatal(err)
	underlay := simnet.NewUDPNet()
	defer underlay.Close()
	fmt.Fprintf(os.Stderr, "building the SCIERA network on loopback UDP (%d ASes)...\n", len(s.ASes))
	n, err := core.Build(topo, underlay, core.Options{Seed: *seed, BestPerOrigin: s.Campaign.BestPerOrigin})
	fatal(err)
	defer n.Close()

	if *metricsAddr != "" || *telemDump != "" {
		cleanup := startObservability(n, underlay, s.Vantage)
		defer cleanup()
	}
	var srvDone func()
	if *metricsAddr != "" {
		srvDone = serveMetrics(n, *metricsAddr)
	}

	if *showpaths != "" {
		src, dst := parsePair(*showpaths)
		paths := n.Paths(src, dst)
		fmt.Printf("%d path(s) %s -> %s:\n", len(paths), src, dst)
		for i, p := range paths {
			kind := ""
			if len(p.Raw.Infos) > 0 && p.Raw.Infos[0].Peer {
				kind = " [peering]"
			}
			fmt.Printf("[%2d] %d hops, %.1f ms one-way, MTU %d%s\n     %s\n",
				i, p.NumHops(), p.LatencyMS, p.MTU, kind, strings.ReplaceAll(p.Fingerprint, ">", " > "))
		}
	}

	if *trace != "" {
		src, dst := parsePair(*trace)
		runTraceroute(n, src, dst)
	}

	if *ping != "" {
		src, dst := parsePair(*ping)
		paths := n.Paths(src, dst)
		if len(paths) == 0 {
			fatal(fmt.Errorf("no paths %s -> %s", src, dst))
		}
		resp, err := n.AttachResponder(dst)
		fatal(err)
		defer resp.Close()
		pinger, err := n.NewPinger(src)
		fatal(err)
		defer pinger.Close()

		// Ping over the three multiping path types in parallel, as the
		// measurement tool does.
		probes := []struct {
			name string
			path *combinator.Path
		}{
			{"shortest", pan.Shortest{}.Order(paths)[0]},
			{"fastest", pan.Fastest{}.Order(paths)[0]},
			{"disjoint", pan.MostDisjoint{}.Order(paths)[0]},
		}
		for i := 0; i < *count; i++ {
			for _, pr := range probes {
				rtt, err := pinger.PingSync(dst, resp.Addr().Addr(), pr.path, 5*time.Second)
				if err != nil {
					fmt.Printf("seq=%d %-8s: %v\n", i, pr.name, err)
					continue
				}
				fmt.Printf("seq=%d %-8s rtt=%.3f ms  via %s\n",
					i, pr.name, float64(rtt)/float64(time.Millisecond), pr.path.Fingerprint)
			}
		}
	}

	if *metricsAddr != "" {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		srvDone()
	}
	if *telemDump != "" {
		writeTelemetryDump(n, *telemDump)
	}
}

// startObservability brings up the remaining instrumented subsystems a
// plain CLI invocation would not touch, so the exposition covers the
// whole stack: a dispatcher on its own loopback host (127.0.0.1:30041
// belongs to the SCMP responders) and an end-host daemon doing a warm
// and a cached path lookup.
func startObservability(n *core.Network, underlay *simnet.UDPNet, vantage []addr.IA) func() {
	disp, err := dispatcher.Start(underlay, netip.MustParseAddr("127.0.0.2"))
	fatal(err)
	disp.RegisterTelemetry(n.Telemetry())
	disp.Trace = n.TraceRing()

	d, err := n.NewDaemon(vantage[0])
	fatal(err)
	if _, err := d.Paths(vantage[1]); err == nil {
		_, _ = d.Paths(vantage[1]) // second lookup hits the cache
	}
	return func() { disp.Close() }
}

// serveMetrics mounts the Prometheus exposition and the JSON snapshot
// on a plain TCP listener (curl-able); returns a shutdown func.
func serveMetrics(n *core.Network, addr string) func() {
	mux := http.NewServeMux()
	mux.Handle("/metrics", n.Telemetry().Handler())
	mux.HandleFunc("/telemetry.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = n.TelemetrySnapshot().WriteJSON(w)
	})
	ln, err := stdnet.Listen("tcp", addr)
	fatal(err)
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics (Ctrl-C to stop)\n", ln.Addr())
	return func() { _ = srv.Close() }
}

// writeTelemetryDump writes the end-of-run snapshot (with the sampled
// packet traces) as JSON.
func writeTelemetryDump(n *core.Network, path string) {
	f, err := os.Create(path)
	fatal(err)
	fatal(n.Telemetry().SnapshotWithTrace(n.TraceRing()).WriteJSON(f))
	fatal(f.Close())
	fmt.Fprintf(os.Stderr, "wrote telemetry snapshot to %s\n", path)
}

func runTraceroute(n *core.Network, src, dst addr.IA) {
	paths := n.Paths(src, dst)
	if len(paths) == 0 {
		fatal(fmt.Errorf("no paths %s -> %s", src, dst))
	}
	pinger, err := n.NewPinger(src)
	fatal(err)
	defer pinger.Close()
	done := make(chan struct{})
	pinger.Traceroute(dst, paths[0], 3*time.Second, func(hops []scmp.Hop, err error) {
		defer close(done)
		fatal(err)
		fmt.Printf("traceroute %s -> %s over %s\n", src, dst, paths[0].Fingerprint)
		for i, h := range hops {
			if h.IA == 0 {
				fmt.Printf("%2d  *\n", i+1)
				continue
			}
			fmt.Printf("%2d  %-12s if=%d  %.3f ms\n", i+1, h.IA, h.IfID,
				float64(h.RTT)/float64(time.Millisecond))
		}
	})
	<-done
}

func parsePair(s string) (addr.IA, addr.IA) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		fatal(fmt.Errorf("expected <src-ia>,<dst-ia>, got %q", s))
	}
	src, err := addr.ParseIA(parts[0])
	fatal(err)
	dst, err := addr.ParseIA(parts[1])
	fatal(err)
	return src, dst
}

func printTopo(s *scenario.Scenario) {
	fmt.Println("SCIERA deployment (Figure 1):")
	for _, a := range s.ASes {
		role := "    "
		if a.Core {
			role = "CORE"
		}
		joined := "under construction"
		if a.Joined != "" {
			joined = a.Joined
		}
		fmt.Printf("  %s %-18s %-12s %-5s joined %s\n", role, a.Name, a.IA, a.Region, joined)
	}
	topo, err := s.Build()
	fatal(err)
	fmt.Printf("\n%d circuits:\n", len(topo.Links()))
	for _, l := range topo.Links() {
		fmt.Printf("  %-45s %-7s %6.1f ms\n", l.Name, l.Type, l.LatencyMS)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
