package core

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/beacon"
	"sciera/internal/pathdb"
	"sciera/internal/simnet"
)

// buildWarmNet constructs the warm (unconverged) counterpart of
// buildNet: same topology, seed and sim start, no control-plane run.
func buildWarmNet(t testing.TB) *Network {
	t.Helper()
	n, err := NewShell(buildTopo(t), simnet.NewSim(time.Unix(0, 0)), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// pathFingerprints projects a path set onto comparable identity:
// fingerprint plus latency, in result order.
func pathFingerprints(n *Network, src, dst addr.IA) []string {
	var out []string
	for _, p := range n.Paths(src, dst) {
		out = append(out, p.Fingerprint)
	}
	return out
}

func samePaths(t *testing.T, a, b *Network, src, dst addr.IA) {
	t.Helper()
	pa, pb := pathFingerprints(a, src, dst), pathFingerprints(b, src, dst)
	if len(pa) != len(pb) {
		t.Fatalf("%v->%v: %d paths vs %d", src, dst, len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("%v->%v path %d: %q vs %q", src, dst, i, pa[i], pb[i])
		}
	}
}

// TestSnapshotCloneServesIdenticalPaths: a replica built warm and
// installed from a snapshot answers every path lookup identically to
// the converged reference — and serves the very same segment objects.
func TestSnapshotCloneServesIdenticalPaths(t *testing.T) {
	cold := buildNet(t, simnet.NewSim(time.Unix(0, 0)))
	defer cold.Close()
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	warm := buildWarmNet(t)
	defer warm.Close()
	if warm.Registry() != nil {
		t.Fatal("shell has a registry before install")
	}
	if err := warm.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}

	for _, pair := range [][2]addr.IA{{lA, lC}, {lC, lA}, {c1, c3}, {lA, c2}} {
		samePaths(t, cold, warm, pair[0], pair[1])
	}

	// Segment objects are shared, not copied; the stores are not.
	coldReg, cloneReg := cold.Registry(), warm.Registry()
	if coldReg == cloneReg {
		t.Fatal("clone shares the registry object itself")
	}
	coldCore, warmCore := coldReg.Core.All(), cloneReg.Core.All()
	if len(coldCore) == 0 || len(coldCore) != len(warmCore) {
		t.Fatalf("core store: %d vs %d segments", len(coldCore), len(warmCore))
	}
	for i := range coldCore {
		if coldCore[i] != warmCore[i] {
			t.Fatal("clone copied core segment objects")
		}
	}
	if coldReg.Core.Stamp() == cloneReg.Core.Stamp() {
		t.Fatal("clone core stamp aliases the reference's")
	}
}

// sameRegistryBytes requires two networks' registries to hold the same
// segment IDs with the same encoded bytes in every store.
func sameRegistryBytes(t *testing.T, a, b *Network) {
	t.Helper()
	ra, rb := a.Registry(), b.Registry()
	same := func(name string, x, y *pathdb.DB) {
		t.Helper()
		xs, ys := x.All(), y.All()
		if len(xs) == 0 || len(xs) != len(ys) {
			t.Fatalf("%s: %d segments vs %d", name, len(xs), len(ys))
		}
		for i := range xs {
			xb, _ := xs[i].Encode()
			yb, _ := ys[i].Encode()
			if xs[i].ID() != ys[i].ID() || !bytes.Equal(xb, yb) {
				t.Fatalf("%s segment %d differs:\n%s\n%s", name, i, xb, yb)
			}
		}
	}
	same("Core", ra.Core, rb.Core)
	same("Down", ra.Down, rb.Down)
}

// TestSnapshotCloneRefreshMatchesReference: after install, a refresh on
// the clone (what a mid-campaign incident triggers) builds byte for byte
// the registry a refresh on the reference builds — a beacon is a
// function of its route, so there is no stream position to align — both
// when the link state is as captured and after a flap on each side.
func TestSnapshotCloneRefreshMatchesReference(t *testing.T) {
	cold := buildNet(t, simnet.NewSim(time.Unix(0, 0)))
	defer cold.Close()
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	warm := buildWarmNet(t)
	defer warm.Close()
	if err := warm.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}

	if err := cold.RefreshControlPlane(); err != nil {
		t.Fatal(err)
	}
	if err := warm.RefreshControlPlane(); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]addr.IA{{lA, lC}, {c1, c3}} {
		samePaths(t, cold, warm, pair[0], pair[1])
	}
	sameRegistryBytes(t, cold, warm)
	for _, n := range []*Network{cold, warm} {
		if err := n.SetLinkUp(0, false); err != nil {
			t.Fatal(err)
		}
	}
	sameRegistryBytes(t, cold, warm)
}

// TestSnapshotFileRoundTrip: snapshot -> serialize -> load -> install
// reproduces the reference's path state, the encoding is canonical
// (same state, same bytes), and every beacon counter the runner
// declares survives by name: the file knows no counter of its own, so
// one the runner has never heard of rides through it too, and is dropped
// only where there is no cell to restore it into.
func TestSnapshotFileRoundTrip(t *testing.T) {
	cold := buildNet(t, simnet.NewSim(time.Unix(0, 0)))
	defer cold.Close()
	cold.WarmPaths([][2]addr.IA{{lA, lC}})
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	declared := (&beacon.RunnerMetrics{}).Counters()
	if len(snap.Beacon) != len(declared) || snap.Beacon["sciera_beacon_registered_total"] == 0 {
		t.Fatalf("snapshot captured %d of %d declared counters: %v", len(snap.Beacon), len(declared), snap.Beacon)
	}
	const foreign = "sciera_beacon_added_in_this_test_total"
	snap.Beacon[foreign] = 7

	dir := t.TempDir()
	p1 := filepath.Join(dir, "snap1.json")
	if err := snap.WriteFile(p1); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshotFile(p1)
	if err != nil {
		t.Fatal(err)
	}

	// Canonical bytes: re-serializing the loaded snapshot reproduces the
	// file exactly.
	p2 := filepath.Join(dir, "snap2.json")
	if err := loaded.WriteFile(p2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("snapshot serialization is not canonical: round-trip changed bytes")
	}

	if strings.Contains(string(b1), "up_segments") {
		t.Fatal("the file still lists up segments beside the down segments they are")
	}
	if !maps.Equal(loaded.Beacon, snap.Beacon) {
		t.Fatalf("loaded counters differ: %v vs %v", loaded.Beacon, snap.Beacon)
	}

	warm := buildWarmNet(t)
	defer warm.Close()
	if err := warm.InstallSnapshot(loaded); err != nil {
		t.Fatal(err)
	}
	delete(snap.Beacon, foreign)
	if got := warm.beaconMetrics.Counters(); !maps.Equal(got, snap.Beacon) {
		t.Fatalf("restored counters %v, captured %v", got, snap.Beacon)
	}
	for _, pair := range [][2]addr.IA{{lA, lC}, {lC, lA}, {c1, c3}} {
		samePaths(t, cold, warm, pair[0], pair[1])
	}
}

// TestInstallSnapshotRejects: the fingerprint checks that keep a
// snapshot from landing on the wrong network.
func TestInstallSnapshotRejects(t *testing.T) {
	cold := buildNet(t, simnet.NewSim(time.Unix(0, 0)))
	defer cold.Close()
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Seed mismatch.
	mis, err := NewShell(buildTopo(t), simnet.NewSim(time.Unix(0, 0)), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mis.Close()
	if err := mis.InstallSnapshot(snap); err == nil {
		t.Fatal("install with mismatched seed succeeded")
	}

	// Already-converged target.
	if err := cold.InstallSnapshot(snap); err == nil {
		t.Fatal("install into a converged network succeeded")
	}

	// Snapshot of an unconverged network.
	warm := buildWarmNet(t)
	defer warm.Close()
	if _, err := warm.Snapshot(); err == nil {
		t.Fatal("snapshot of an unconverged network succeeded")
	}
}

// TestSnapshotWithPKIShares: a PKI snapshot shares the reference's
// trust material with in-process clones, and its counters survive the
// restore.
func TestSnapshotWithPKIShares(t *testing.T) {
	cold, err := Build(buildTopo(t), simnet.NewSim(time.Unix(0, 0)), Options{Seed: 1, WithPKI: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Trust == nil || snap.Trust.TRCs == nil {
		t.Fatal("PKI snapshot carries no trust material")
	}
	const verified = "sciera_beacon_verified_total"
	if snap.Beacon[verified] == 0 {
		t.Fatal("PKI convergence verified no beacons")
	}

	warm, err := NewShell(buildTopo(t), simnet.NewSim(time.Unix(0, 0)), Options{Seed: 1, WithPKI: true})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if err := warm.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if warm.TRCs() != cold.TRCs() {
		t.Fatal("clone did not adopt the shared TRC store")
	}
	if got := warm.beaconMetrics.Verified.Load(); got != snap.Beacon[verified] {
		t.Fatalf("clone verified counter %d, snapshot %d", got, snap.Beacon[verified])
	}
	samePaths(t, cold, warm, lA, lC)
}

// TestClonedPathsZeroAlloc guards the clone hot path: on a
// snapshot-cloned replica the warm combination memo must serve steady-
// state path lookups with zero allocations — cloning buys setup time
// without taxing the campaign loop.
func TestClonedPathsZeroAlloc(t *testing.T) {
	cold := buildNet(t, simnet.NewSim(time.Unix(0, 0)))
	defer cold.Close()
	cold.WarmPaths([][2]addr.IA{{lA, lC}, {c1, c3}})
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	warm := buildWarmNet(t)
	defer warm.Close()
	if err := warm.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if &warm.Paths(lA, lC)[0] != &cold.Paths(lA, lC)[0] {
		t.Fatal("clone recombined a pair the reference had warmed")
	}
	if allocs := testing.AllocsPerRun(200, func() {
		warm.Paths(lA, lC)
		warm.Paths(c1, c3)
	}); allocs != 0 {
		t.Fatalf("cloned-replica path lookup allocates %.1f per run, want 0", allocs)
	}
}
