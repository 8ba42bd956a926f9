package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/simnet"
	"sciera/internal/topology"
)

// TestSetLinkUpNoFlipNoRefresh: setting a link to the state it is in is
// no event — the published registry and the beacon counters stay as they
// are — while a real flip still refreshes.
func TestSetLinkUpNoFlipNoRefresh(t *testing.T) {
	n := buildNet(t, simnet.NewSim(time.Unix(0, 0)))
	defer n.Close()
	originated := func() float64 { return n.TelemetrySnapshot().Total("sciera_beacon_originated_total") }

	reg, count := n.Registry(), originated()
	if count == 0 {
		t.Fatal("convergence originated no beacon")
	}
	if err := n.SetLinkUp(0, true); err != nil {
		t.Fatal(err)
	}
	if n.Registry() != reg || originated() != count {
		t.Fatalf("bringing up a link that is up refreshed the control plane (originated %v -> %v)", count, originated())
	}
	if err := n.SetLinkUp(0, false); err != nil {
		t.Fatal(err)
	}
	if n.Registry() == reg || originated() <= count {
		t.Fatal("taking a link down did not refresh the control plane")
	}
	reg, count = n.Registry(), originated()
	if err := n.SetLinkUp(0, false); err != nil {
		t.Fatal(err)
	}
	if n.Registry() != reg || originated() != count {
		t.Fatal("taking down a link that is down refreshed the control plane")
	}
	if err := n.SetLinkUp(99, true); err == nil {
		t.Fatal("unknown link accepted")
	}
	// A refresh asked for outright runs, finds nothing changed, and
	// publishes a registry of the same stores: lookups stay valid.
	token := n.Registry().Token(lA)
	if err := n.RefreshControlPlane(); err != nil {
		t.Fatal(err)
	}
	if n.Registry() == reg || originated() == count {
		t.Fatal("RefreshControlPlane did not run")
	}
	if n.Registry().Token(lA) != token {
		t.Fatal("a refresh that changed nothing moved the lookup token")
	}
}

// TestRefreshStartsFromPublishedRegistry: the network hands each refresh
// the registry it published last. After a core flap, a runtime peering
// link, an attached AS and the flap undone, the registry equals byte for
// byte the one a network built cold on the same topology converges to;
// the refreshes after link flaps and the attachment reuse beacons, the
// one after the new peering link builds everything.
func TestRefreshStartsFromPublishedRegistry(t *testing.T) {
	newIA := addr.MustParseIA("71-2:0:99")
	warm := buildNet(t, simnet.NewSim(time.Unix(0, 0)))
	defer warm.Close()
	counter := func(name string) float64 { return warm.TelemetrySnapshot().Total(name) }
	reusedBy := func(event func() error) float64 {
		t.Helper()
		before := counter("sciera_beacon_reused_total")
		if err := event(); err != nil {
			t.Fatal(err)
		}
		return counter("sciera_beacon_reused_total") - before
	}

	if counter("sciera_beacon_reused_total") != 0 || counter("sciera_beacon_built_total") == 0 {
		t.Fatalf("convergence built %v and reused %v", counter("sciera_beacon_built_total"), counter("sciera_beacon_reused_total"))
	}
	if reusedBy(func() error { return warm.SetLinkUp(2, false) }) == 0 {
		t.Error("the refresh after a core flap reused nothing")
	}
	if n := reusedBy(func() error {
		if _, err := warm.AddRuntimeLink(lA, lC, topology.LinkPeer, 8, "late-peering"); err != nil {
			return err
		}
		return warm.RefreshControlPlane()
	}); n != 0 {
		t.Errorf("the refresh after a new peering link reused %v beacons whose peer entries it changed", n)
	}
	if reusedBy(func() error {
		return warm.AttachAS(topology.ASInfo{IA: newIA, Name: "Newcomer"}, []UplinkSpec{{Parent: lA, LatencyMS: 7}})
	}) == 0 {
		t.Error("the refresh after attaching an AS reused nothing")
	}
	if reusedBy(func() error { return warm.SetLinkUp(2, true) }) == 0 {
		t.Error("the refresh after the flap was undone reused nothing")
	}

	topo := buildTopo(t)
	if _, err := topo.AddLink(topology.LinkEnd{IA: lA}, topology.LinkEnd{IA: lC}, topology.LinkPeer, 8, "late-peering"); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddAS(topology.ASInfo{IA: newIA, Name: "Newcomer"}); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.AddLink(topology.LinkEnd{IA: lA}, topology.LinkEnd{IA: newIA}, topology.LinkParent, 7, ""); err != nil {
		t.Fatal(err)
	}
	cold, err := Build(topo, simnet.NewSim(time.Unix(0, 0)), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	sameRegistryBytes(t, cold, warm)
	samePaths(t, cold, warm, newIA, lC)
}

// TestSnapshotOldVersionRefused: a version-1 file (it recorded
// rand_draws, a position in an RNG stream nothing draws from any more)
// and a version-2 file (it listed every AS's up segments by ID beside the
// down segments they are) are each refused with an error that names both
// versions.
func TestSnapshotOldVersionRefused(t *testing.T) {
	n := buildNet(t, simnet.NewSim(time.Unix(0, 0)))
	defer n.Close()
	snap, err := n.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"rand_draws", "up_segments"} {
		if strings.Contains(string(raw), gone) {
			t.Fatalf("snapshot file still records %s", gone)
		}
	}
	var upIDs []string
	for _, seg := range n.Registry().Ups(lA) {
		upIDs = append(upIDs, fmt.Sprintf("%q", seg.ID()))
	}
	for _, old := range []struct {
		version string
		header  string
	}{
		{"version 1", `"version":1,"rand_draws":31,`},
		{"version 2", fmt.Sprintf(`"version":2,"up_segments":{%q:[%s]},`, lA.String(), strings.Join(upIDs, ","))},
	} {
		file := strings.Replace(string(raw), `"version":3,`, old.header, 1)
		if file == string(raw) {
			t.Fatalf("no version-3 header to rewrite in %.60s", raw)
		}
		if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = LoadSnapshotFile(path)
		if err == nil || !strings.Contains(err.Error(), old.version) || !strings.Contains(err.Error(), "want 3") {
			t.Fatalf("%s snapshot: %v, want a refusal naming %s and the wanted 3", old.version, err, old.version)
		}
	}
}
