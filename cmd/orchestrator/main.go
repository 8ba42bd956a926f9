// Command orchestrator demonstrates the SCION Orchestrator workflow of
// Section 4.4 on a live in-process deployment: provision a new AS from
// a JSON config, run automated certificate renewal, monitor
// connectivity with alerting, and print the status dashboard.
//
//	orchestrator -config as.json   # provision from a config file
//	orchestrator                   # demo with a built-in config
package main

import (
	"crypto/x509"
	"flag"
	"fmt"
	"os"
	"time"

	"sciera/internal/addr"
	"sciera/internal/ca"
	"sciera/internal/core"
	"sciera/internal/cppki"
	"sciera/internal/orchestrator"
	"sciera/internal/scenario"
	"sciera/internal/simnet"
)

const demoConfig = `{
  "ia": "71-2:0:99",
  "name": "New University",
  "lat": 48.15, "lon": 11.58,
  "uplinks": [
    {"parent": "71-20965", "latency_ms": 4.5, "name": "NREN VLAN 1"},
    {"parent": "71-20965", "latency_ms": 6.0, "name": "NREN VLAN 2"}
  ]
}`

func main() {
	var (
		configPath = flag.String("config", "", "AS provisioning config (JSON); demo config if empty")
		seed       = flag.Int64("seed", 42, "seed")
	)
	flag.Parse()

	raw := []byte(demoConfig)
	if *configPath != "" {
		b, err := os.ReadFile(*configPath)
		fatal(err)
		raw = b
	}
	cfg, err := orchestrator.ParseASConfig(raw)
	fatal(err)

	// Bring up SCIERA on the simulator (virtual time lets the demo
	// fast-forward through days of renewals in milliseconds).
	s := scenario.MustBuiltin("sciera")
	topo, err := s.Build()
	fatal(err)
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n, err := core.Build(topo, sim, core.Options{Seed: *seed, BestPerOrigin: s.Campaign.BestPerOrigin})
	fatal(err)
	defer n.Close()
	o := orchestrator.New(n)
	o.AlertFunc = func(a orchestrator.Alert) {
		fmt.Printf("[email] %s\n", a.Message)
	}

	// 1. Provision the new AS.
	fmt.Printf("provisioning %s (%s)...\n", cfg.IA, cfg.Name)
	fatal(o.Provision(cfg))
	for _, e := range o.Events() {
		fmt.Println("  " + e)
	}
	paths := n.Paths(addr.MustParseIA("71-225"), cfg.IA)
	fmt.Printf("UVa now reaches the new AS over %d path(s)\n\n", len(paths))

	// 2. Automated certificate renewal against the ISD CA.
	p, err := cppki.ProvisionISD(71, []addr.IA{addr.MustParseIA("71-20965")},
		[]addr.IA{addr.MustParseIA("71-20965")},
		cppki.ProvisionOptions{NotBefore: sim.Now().Add(-time.Hour)})
	fatal(err)
	caCert, err := x509.ParseCertificate(p.CACerts[addr.MustParseIA("71-20965")].Cert)
	fatal(err)
	issuer := ca.New(addr.MustParseIA("71-20965"), caCert, p.CACerts[addr.MustParseIA("71-20965")].Key, 72*time.Hour, sim.Now)
	r, err := o.ManageRenewal(cfg.IA, issuer, 6*time.Hour)
	fatal(err)

	// 3. Connectivity monitoring from GEANT.
	fatal(o.StartMonitoring(addr.MustParseIA("71-20965"), time.Minute))

	// Simulate a week of operation with one incident.
	fmt.Println("simulating 7 days of operation with a mid-week circuit outage...")
	sim.RunFor(3 * 24 * time.Hour)
	setUFMSUplinks := func(up bool) {
		for _, name := range []string{"RNP-UFMS (VLAN1)", "RNP-UFMS (VLAN2)"} {
			if id, ok := n.Topo.LinkIDByName(name); ok {
				_ = n.Topo.SetLinkUp(id, up)
			}
		}
	}
	setUFMSUplinks(false)
	sim.RunFor(6 * time.Hour)
	setUFMSUplinks(true)
	sim.RunFor(4*24*time.Hour - 6*time.Hour)

	fmt.Printf("\ncertificate renewals over the week: %d\n", r.Renewals())
	fmt.Printf("alerts raised: %d\n\n", len(o.Alerts()))
	fmt.Println(o.Dashboard())
	o.Stop()
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
