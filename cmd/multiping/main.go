// Command multiping runs the Section 5.4 measurement campaign over a
// simulated deployment in virtual time and writes the dataset — the
// reproduction of the scion-go-multiping data-collection pipeline. The
// dataset is experiments.RunCampaign's, the one Figures 5-10a are drawn
// from: the scenario's incident calendar is replayed and its IP plane
// is the baseline. By default it measures the built-in SCIERA scenario;
// -scenario swaps in any builtin, generated, or file-loaded scenario
// (the vantage set and pair ordering come from the scenario's vantage
// list).
//
//	multiping -out dataset.json          # full 20-day campaign
//	multiping -quick -out d.json         # the scenario's quick scale
//	multiping -scenario gen:ases=210,isds=3,seed=1 -quick -out gen.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"sciera/internal/experiments"
	"sciera/internal/scenario"
)

func main() {
	var (
		out       = flag.String("out", "multiping-dataset.json", "output dataset path")
		seed      = flag.Int64("seed", 42, "seed")
		quick     = flag.Bool("quick", false, "the scenario's quick scale (shorter campaign, fewer vantage ASes)")
		scen      = flag.String("scenario", "", "scenario to measure: builtin name, gen:<spec>, or file path (default: sciera)")
		telemDump = flag.String("telemetry-dump", "", "write the final telemetry snapshot as JSON to this file")
	)
	flag.Parse()

	s, err := scenario.Resolve(*scen)
	fatal(err)

	fmt.Fprintf(os.Stderr, "running the campaign on scenario %q (virtual time)...\n", s.Name)
	start := time.Now()
	ds, n, err := experiments.RunCampaign(experiments.Config{
		Seed: *seed, Scenario: s, Quick: *quick,
		TelemetryPath: *telemDump, Workers: runtime.NumCPU(),
	})
	fatal(err)
	n.Close()
	fatal(ds.Save(*out))
	if *telemDump != "" {
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
