// Command experiments regenerates the paper's tables and figures on a
// simulated deployment — by default the built-in SCIERA reference
// scenario, or any scenario selected with -scenario.
//
// Usage:
//
//	experiments -all              # every experiment (full scale)
//	experiments -run fig5         # one experiment
//	experiments -quick -run fig6  # reduced scale for a fast look
//	experiments -list             # list experiment names
//	experiments -all -workers 4   # shard the campaign across 4 workers
//	                              # (same bytes out, less wall clock)
//	experiments -all -pki         # signed+verified control plane
//	                              # (same bytes out, signed-overhead arm)
//	experiments -all -telemetry t.json   # also dump the campaign's telemetry
//	experiments -telemetry-report t.json # digest dump file(s) instead
//	experiments -all -snapshot s.json    # persist/reuse the converged-state
//	                                     # snapshot (restart-and-resume)
//
// Scenario selection (see docs/scenarios.md):
//
//	experiments -all -scenario sciera              # builtin by name
//	experiments -all -scenario scenarios/foo.json  # scenario file
//	experiments -all -quick -scenario gen:ases=210,isds=3,seed=1
//	                                               # generated topology
//	experiments -list-scenarios                    # builtin names
//	experiments -scenario-dump -scenario gen:seed=7 > gen7.json
//	                                               # canonical JSON for diffing
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"sciera/internal/experiments"
	"sciera/internal/scenario"
	_ "sciera/internal/sciera" // registers the builtin "sciera" scenario
	"sciera/internal/telemetry"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run every experiment")
		run      = flag.String("run", "", "run one experiment by name")
		quick    = flag.Bool("quick", false, "reduced scale (shorter campaign, fewer runs)")
		seed     = flag.Int64("seed", 42, "random seed (fixed seeds reproduce EXPERIMENTS.md)")
		list     = flag.Bool("list", false, "list experiment names")
		telem    = flag.String("telemetry", "", "write the campaign's telemetry snapshot as JSON to this file")
		rep      = flag.String("telemetry-report", "", "print a report from telemetry dump file(s), comma-separated")
		workers  = flag.Int("workers", runtime.NumCPU(), "parallel campaign workers (output is byte-identical for any count)")
		pki      = flag.Bool("pki", false, "sign and verify the control plane (output is byte-identical, wall time higher)")
		scen     = flag.String("scenario", "", "scenario to run on: builtin name, gen:<spec>, or file path (default: sciera)")
		snapPath = flag.String("snapshot", "", "persist/reuse the campaign's converged-state snapshot at this path (load if present, else converge once and write)")
		listScen = flag.Bool("list-scenarios", false, "list builtin scenario names")
		dumpScen = flag.Bool("scenario-dump", false, "print the resolved, validated scenario as canonical JSON and exit")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	if *listScen {
		fmt.Println(strings.Join(scenario.BuiltinNames(), "\n"))
		return
	}

	s, err := scenario.Resolve(*scen)
	if err != nil {
		fail(err)
	}
	if *dumpScen {
		buf, err := s.Canonical()
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(buf)
		return
	}

	cfg := experiments.Config{
		Seed: *seed, Quick: *quick, TelemetryPath: *telem,
		Workers: *workers, WithPKI: *pki, Scenario: s,
		SnapshotPath: *snapPath,
	}
	switch {
	case *rep != "":
		var snaps []telemetry.Snapshot
		for _, path := range strings.Split(*rep, ",") {
			s, err := experiments.LoadTelemetry(strings.TrimSpace(path))
			if err != nil {
				fail(err)
			}
			snaps = append(snaps, s)
		}
		experiments.TelemetryReport(os.Stdout, snaps...)
	case *list:
		fmt.Println(strings.Join(experiments.Names, "\n"))
	case *all:
		if err := experiments.RunAll(os.Stdout, cfg); err != nil {
			fail(err)
		}
	case *run != "":
		if err := experiments.Run(os.Stdout, *run, cfg); err != nil {
			fail(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
