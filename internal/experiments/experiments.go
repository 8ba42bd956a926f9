// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) on the simulated SCIERA deployment. Each
// experiment prints the rows or series the paper reports, side by side
// with the paper's own numbers where they are disclosed, so shape
// comparisons are immediate. EXPERIMENTS.md records a reference run.
package experiments

import (
	"fmt"
	"io"
	"time"

	"sciera/internal/addr"
	"sciera/internal/core"
	"sciera/internal/multiping"
	"sciera/internal/scenario"
	"sciera/internal/simnet"
	"sciera/internal/stats"
)

// Config parameterizes a run.
type Config struct {
	Seed int64
	// Scenario is the deployment the experiments run on: topology,
	// vantage set, incident calendar, campaign parameters, IP baseline.
	// Nil selects the built-in SCIERA reference scenario, reproducing
	// the paper's evaluation.
	Scenario *scenario.Scenario
	// Quick shrinks the campaigns for fast runs (tests); the full runs
	// regenerate the paper-scale statistics.
	Quick bool
	// TelemetryPath, when set, writes the measurement campaign's final
	// telemetry snapshot (with trace ring) as JSON to this file — the
	// -telemetry flag of cmd/experiments and -telemetry-dump of
	// cmd/multiping. The figure output on w is
	// unaffected. With Workers > 1 the per-worker registries are merged
	// (counters sum, histograms pool) before writing.
	TelemetryPath string
	// Workers shards the measurement campaign across N parallel
	// workers, each running its slice of the vantage pairs on a private
	// deterministically-seeded network replica; partial datasets merge
	// in canonical order, so the result — and every figure derived from
	// it — is byte-identical for any worker count (see DESIGN.md,
	// "parallel campaign execution"). 0 or 1 runs single-worker, and so
	// does a scenario that caps a link's bandwidth.
	Workers int
	// WithPKI runs the campaigns with the signed control plane: every
	// beacon entry is signed and verified on receipt (core.Options
	// WithPKI). Signing draws from crypto/rand, never the seeded RNG,
	// and an honest network admits exactly the beacons an unsigned run
	// admits, so figure output is byte-identical with or without it —
	// only wall time changes (the signed-overhead ablation).
	WithPKI bool
}

// scn resolves the config's scenario, defaulting to the built-in
// SCIERA reference deployment.
func (c Config) scn() *scenario.Scenario {
	if c.Scenario != nil {
		return c.Scenario
	}
	return scenario.MustBuiltin("sciera")
}

// CampaignScale returns the measurement campaign parameters.
func (c Config) campaign() (duration, interval time.Duration, vantage []addr.IA) {
	s := c.scn()
	if c.Quick {
		return s.Campaign.QuickDuration(), s.Campaign.QuickInterval(), s.QuickVantage()
	}
	// The full window; for SCIERA, one measurement round per 5 minutes
	// over 20 days samples the same per-pair RTT processes the 1 Hz
	// tool observed.
	return s.Campaign.Duration(), s.Campaign.Interval(), s.Vantage
}

// BuildNetwork constructs the SCIERA network on a fresh simulator.
func BuildNetwork(seed int64) (*core.Network, *simnet.Sim, error) {
	return buildNetworkCfg(Config{Seed: seed})
}

// netOptions assembles the core.Options a campaign or figure network
// is built with.
func (c Config) netOptions(s *scenario.Scenario) core.Options {
	return core.Options{
		Seed:          c.Seed,
		BestPerOrigin: s.Campaign.BestPerOrigin,
		WithPKI:       c.WithPKI,
	}
}

// buildNetworkCfg constructs the scenario's network a campaign or
// figure run uses, honoring the config's network-affecting knobs.
func buildNetworkCfg(cfg Config) (*core.Network, *simnet.Sim, error) {
	s := cfg.scn()
	topo, err := s.Build()
	if err != nil {
		return nil, nil, err
	}
	sim := simnet.NewSim(s.Campaign.Start())
	n, err := core.Build(topo, sim, cfg.netOptions(s))
	if err != nil {
		return nil, nil, err
	}
	return n, sim, nil
}

// campaignReplica constructs one campaign-ready network replica, the
// one way there is: the scenario's network comes up as a shell, the
// incident calendar is spliced in (scheduled outages/flaps and the links
// activated mid-campaign, built into the topology but held down until
// their activation time), and the control plane is then either installed
// from snap or, with none, converged. Every campaign worker calls this
// with the same seed and therefore owns an identical replica — topology,
// beaconing and path state are seed-reproducible, which is what makes
// pair-sharding exact.
func campaignReplica(cfg Config, snap *core.Snapshot) (*core.Network, []multiping.IncidentEvent, error) {
	s := cfg.scn()
	topo, err := s.Build()
	if err != nil {
		return nil, nil, err
	}
	n, err := core.NewShell(topo, simnet.NewSim(s.Campaign.Start()), cfg.netOptions(s))
	if err != nil {
		return nil, nil, err
	}
	events, err := applyCampaignCalendar(cfg, n)
	switch {
	case err != nil:
	case snap != nil:
		err = n.InstallSnapshot(snap)
	default:
		err = n.Converge()
	}
	if err != nil {
		n.Close()
		return nil, nil, err
	}
	return n, events, nil
}

// applyCampaignCalendar prepares a replica's shell for the campaign: it
// compiles the scenario's incident calendar into events and splices the
// mid-campaign runtime links into the topology (built now, held down
// until their activation events), before any control-plane state exists.
func applyCampaignCalendar(cfg Config, n *core.Network) ([]multiping.IncidentEvent, error) {
	s := cfg.scn()
	events, err := multiping.BuildEvents(n.Topo.LinkIDByName, s.Incidents)
	if err != nil {
		return nil, err
	}
	for _, nl := range s.NewLinks {
		// Runtime-circuit latencies were resolved by the scenario
		// loader (plain geodesic + extra: provisioned waves, no PoP
		// detour modeling).
		typ, err := scenario.RuntimeLinkType(nl.Type)
		if err != nil {
			return nil, fmt.Errorf("experiments: new link %q: %w", nl.Name, err)
		}
		l, err := n.AddRuntimeLink(nl.A, nl.B, typ, nl.LatencyMS, nl.Name)
		if err != nil {
			return nil, err
		}
		l.SetBandwidth(nl.BandwidthMbps)
		_ = n.Topo.SetLinkUp(l.ID, false)
		events = append(events, multiping.IncidentEvent{
			At: nl.Activate(), LinkID: l.ID, Up: true, Name: nl.Name,
		})
	}
	return events, nil
}

// RunCampaign executes the Section 5.4 measurement campaign, replaying
// the incident calendar, and returns the dataset shared by Figures 5-9
// and 10a. With cfg.Workers > 1 the campaign's vantage pairs are
// sharded across parallel workers (see shard.go); the merged dataset is
// byte-identical to a single-worker run. The returned network is one
// campaign replica in its post-campaign state (the caller closes it).
func RunCampaign(cfg Config) (*multiping.Dataset, *core.Network, error) {
	s := cfg.scn()
	duration, interval, vantage := cfg.campaign()
	ipTopo, err := s.BuildIPPlane()
	if err != nil {
		return nil, nil, err
	}
	campaignCfg := multiping.Config{
		Vantage:    vantage,
		Interval:   interval,
		Duration:   duration,
		IPRTT:      s.IPBaseline(ipTopo).RTTms,
		StallModel: true,
	}
	return runShardedCampaign(cfg, campaignCfg)
}

// section prints an experiment header.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n\n", title)
}

// renderCDF prints CDF points as two columns.
func renderCDF(w io.Writer, name string, c *stats.CDF, points int) {
	fmt.Fprintf(w, "%s (n=%d):\n", name, c.Len())
	t := stats.Table{Header: []string{"fraction", "value"}}
	for _, p := range c.Points(points) {
		t.AddRow(fmt.Sprintf("%.2f", p.Frac), fmt.Sprintf("%.1f", p.X))
	}
	fmt.Fprint(w, t.Render())
}
