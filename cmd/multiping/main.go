// Command multiping runs the Section 5.4 measurement campaign over a
// simulated deployment in virtual time and writes the dataset — the
// reproduction of the scion-go-multiping data-collection pipeline. By
// default it measures the built-in SCIERA scenario; -scenario swaps in
// any builtin, generated, or file-loaded scenario (the vantage set and
// pair ordering come from the scenario's vantage list).
//
//	multiping -out dataset.json                 # full 20-day campaign
//	multiping -days 2 -interval 10m -out d.json # shorter run
//	multiping -scenario gen:ases=210,isds=3,seed=1 -days 1 -out gen.json
package main

import (
	"flag"
	"fmt"
	stdnet "net"
	"net/http"
	"os"
	"time"

	"sciera/internal/addr"
	"sciera/internal/core"
	"sciera/internal/multiping"
	"sciera/internal/scenario"
	_ "sciera/internal/sciera" // registers the builtin "sciera" scenario
	"sciera/internal/simnet"
)

func main() {
	var (
		out         = flag.String("out", "multiping-dataset.json", "output dataset path")
		days        = flag.Int("days", 0, "campaign length in days (0: the scenario's campaign length)")
		interval    = flag.Duration("interval", 5*time.Minute, "measurement interval")
		seed        = flag.Int64("seed", 42, "seed")
		best        = flag.Int("best", 0, "beacons kept per origin in the control plane (0: the scenario's)")
		stall       = flag.Bool("stall", true, "reproduce the tool's hourly ICMP stalls")
		scen        = flag.String("scenario", "", "scenario to measure: builtin name, gen:<spec>, or file path (default: sciera)")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics on this TCP address while the campaign runs")
		telemDump   = flag.String("telemetry-dump", "", "write the final telemetry snapshot as JSON to this file")
	)
	flag.Parse()

	s, err := scenario.Resolve(*scen)
	fatal(err)
	if *days <= 0 {
		*days = s.Campaign.Days
	}
	if *best <= 0 {
		*best = s.Campaign.BestPerOrigin
	}

	topo, err := s.Build()
	fatal(err)
	sim := simnet.NewSim(s.Campaign.Start())
	n, err := core.Build(topo, sim, core.Options{Seed: *seed, BestPerOrigin: *best})
	fatal(err)
	defer n.Close()

	// The commercial-Internet baseline; scenarios without an IP plane
	// record every interval as IP-missing (negative RTT).
	ipRTT := func(src, dst addr.IA) float64 { return -1 }
	if s.IPPlane != nil {
		ipTopo, err := s.BuildIPPlane()
		fatal(err)
		ipRTT = s.IPBaseline(ipTopo).RTTms
	}

	fmt.Fprintf(os.Stderr, "running %d-day campaign on scenario %q from %d vantage ASes (virtual time)...\n",
		*days, s.Name, len(s.Vantage))
	camp, err := multiping.NewCampaign(n, multiping.Config{
		Vantage:    s.Vantage,
		Interval:   *interval,
		Duration:   time.Duration(*days) * 24 * time.Hour,
		IPRTT:      ipRTT,
		StallModel: *stall,
		Seed:       *seed,
	})
	fatal(err)
	defer camp.Close()

	if *metricsAddr != "" {
		// Live scrape point: counters are atomics, so reading them
		// concurrently with the (virtual-time) campaign is safe.
		mux := http.NewServeMux()
		mux.Handle("/metrics", n.Telemetry().Handler())
		ln, err := stdnet.Listen("tcp", *metricsAddr)
		fatal(err)
		srv := &http.Server{Handler: mux}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics for the campaign's duration\n", ln.Addr())
	}

	start := time.Now()
	ds, err := camp.Run()
	fatal(err)
	fatal(ds.Save(*out))

	if *telemDump != "" {
		f, err := os.Create(*telemDump)
		fatal(err)
		fatal(n.Telemetry().SnapshotWithTrace(n.TraceRing()).WriteJSON(f))
		fatal(f.Close())
		fmt.Fprintf(os.Stderr, "wrote telemetry snapshot to %s\n", *telemDump)
	}

	scion, ip := ds.PingCDFs()
	fmt.Printf("wrote %s: %d interval records, %d SCMP probes (%.1fs wall clock)\n",
		*out, len(ds.Records), ds.Probes, time.Since(start).Seconds())
	fmt.Printf("SCION median %.1f ms / p90 %.1f ms; IP median %.1f ms / p90 %.1f ms\n",
		scion.Median(), scion.Percentile(90), ip.Median(), ip.Percentile(90))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
