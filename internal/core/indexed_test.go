package core_test

import (
	"path/filepath"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/core"
	"sciera/internal/multiping"
	"sciera/internal/scenario"
	_ "sciera/internal/sciera" // registers the builtin "sciera" scenario
	"sciera/internal/simnet"
	"sciera/internal/topology"
)

// scenarioNet converges a scenario's network on a fresh simulator.
func scenarioNet(t *testing.T, spec string) (*core.Network, *simnet.Sim, *scenario.Scenario) {
	t.Helper()
	sc, err := scenario.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := simnet.NewSim(sc.Campaign.Start())
	n, err := core.Build(topo, sim, core.Options{Seed: 1, BestPerOrigin: sc.Campaign.BestPerOrigin})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, sim, sc
}

// vantagePairs resolves every ordered vantage pair and returns how many
// had a path.
func vantagePairs(n *core.Network, sc *scenario.Scenario) (found int) {
	for _, a := range sc.Vantage {
		for _, b := range sc.Vantage {
			if a != b && len(n.Paths(a, b)) > 0 {
				found++
			}
		}
	}
	return found
}

// TestProductionLookupsAreIndexed: the path DB indexes the three query
// shapes path resolution issues and scans for every other, so neither
// store of a published registry may have scanned once after a campaign
// round on the SCIERA deployment, after each of ten core-circuit flaps
// with Network.Paths and daemon lookups on the benchmark's churn
// topology, or after a snapshot has been through its file.
func TestProductionLookupsAreIndexed(t *testing.T) {
	indexed := func(t *testing.T, when string, n *core.Network) {
		t.Helper()
		reg := n.Registry()
		if reg.Core.Len() == 0 || reg.Down.Len() == 0 {
			t.Fatalf("%s: empty registry (%d core, %d down segments)", when, reg.Core.Len(), reg.Down.Len())
		}
		if c, d := reg.Core.Scans(), reg.Down.Scans(); c != 0 || d != 0 {
			t.Fatalf("%s: %d core and %d down lookups were answered by a scan", when, c, d)
		}
	}

	t.Run("campaign round", func(t *testing.T) {
		n, _, sc := scenarioNet(t, "sciera")
		ipTopo, err := sc.BuildIPPlane()
		if err != nil {
			t.Fatal(err)
		}
		camp, err := multiping.NewCampaign(n, multiping.Config{
			Vantage:  sc.Vantage,
			Interval: time.Minute,
			Duration: time.Minute,
			IPRTT:    sc.IPBaseline(ipTopo).RTTms,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer camp.Close()
		ds, err := camp.Run()
		if err != nil {
			t.Fatal(err)
		}
		if ds.Probes == 0 || len(ds.PathCounts) == 0 {
			t.Fatalf("the round sent %d probes and %d full probes", ds.Probes, len(ds.PathCounts))
		}
		indexed(t, "after a campaign round", n)
	})

	t.Run("churn", func(t *testing.T) {
		n, sim, sc := scenarioNet(t, "gen:isds=3,ases=200,cores=8,seed=1")
		d, err := n.NewDaemon(sc.Vantage[0])
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		var circuits []*topology.Link
		for _, l := range n.Topo.Links() {
			if l.Type == topology.LinkCore {
				circuits = append(circuits, l)
			}
		}
		for flap := 0; flap < 10; flap++ {
			l := circuits[flap/2*7%len(circuits)]
			if err := n.SetLinkUp(l.ID, flap%2 == 1); err != nil {
				t.Fatal(err)
			}
			if vantagePairs(n, sc) == 0 {
				t.Fatalf("flap %d: no vantage pair has a path", flap)
			}
			d.FlushCache()
			for _, dst := range []addr.IA{sc.Vantage[len(sc.Vantage)/2], sc.Vantage[len(sc.Vantage)-1]} {
				var lookupErr error
				answered := false
				d.PathsAsync(dst, func(_ []*combinator.Path, err error) { answered, lookupErr = true, err })
				sim.Run()
				if !answered || lookupErr != nil {
					t.Fatalf("flap %d: daemon lookup of %v: answered %v, %v", flap, dst, answered, lookupErr)
				}
			}
			indexed(t, "after a core flap", n)
		}
	})

	t.Run("snapshot file", func(t *testing.T) {
		n, _, sc := scenarioNet(t, "sciera")
		snap, err := n.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		file := filepath.Join(t.TempDir(), "snapshot.json")
		if err := snap.WriteFile(file); err != nil {
			t.Fatal(err)
		}
		loaded, err := core.LoadSnapshotFile(file)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		warm, err := core.NewShell(topo, simnet.NewSim(sc.Campaign.Start()), n.Opts)
		if err != nil {
			t.Fatal(err)
		}
		defer warm.Close()
		if err := warm.InstallSnapshot(loaded); err != nil {
			t.Fatal(err)
		}
		if got, want := vantagePairs(warm, sc), vantagePairs(n, sc); got == 0 || got != want {
			t.Fatalf("%d vantage pairs have a path on the loaded replica, %d on the reference", got, want)
		}
		indexed(t, "written to its file", n)
		indexed(t, "loaded from the file", warm)
		if c, d := loaded.Registry.Core.Scans(), loaded.Registry.Down.Scans(); c != 0 || d != 0 {
			t.Fatalf("the loaded registry scanned %d (core) and %d (down) times while it was cloned", c, d)
		}
	})
}
