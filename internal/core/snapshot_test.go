package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/simnet"
)

// buildWarmNet constructs the warm (unconverged) counterpart of
// buildNet: same topology, seed and sim start, no control-plane run.
func buildWarmNet(t testing.TB) *Network {
	t.Helper()
	n, err := BuildWarm(buildTopo(t), simnet.NewSim(time.Unix(0, 0)), Options{Seed: 1})
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

// TestCountingSourcePassThrough: the counting source produces the exact
// stream the bare seeded source would (so wrapping it changed no seeded
// run), and its count identifies the generator position.
func TestCountingSourcePassThrough(t *testing.T) {
	counted := rand.New(newCountingSource(42))
	plain := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		if a, b := counted.Intn(1<<16), plain.Intn(1<<16); a != b {
			t.Fatalf("draw %d: counted %d, plain %d", i, a, b)
		}
	}
}

// TestCountingSourceFastForward: a fresh source that discards draws
// until it reaches a recorded count continues with exactly the draws
// the original source would produce next — the clone RNG-alignment
// mechanism.
func TestCountingSourceFastForward(t *testing.T) {
	ref := newCountingSource(7)
	refRng := rand.New(ref)
	for i := 0; i < 137; i++ {
		refRng.Intn(1 << 16)
	}
	mark := ref.Count()

	clone := newCountingSource(7)
	cloneRng := rand.New(clone)
	for clone.Count() < mark {
		clone.Uint64()
	}
	for i := 0; i < 100; i++ {
		if a, b := refRng.Intn(1<<16), cloneRng.Intn(1<<16); a != b {
			t.Fatalf("post-fast-forward draw %d: ref %d, clone %d", i, a, b)
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
		t.Fatal("BuildWarm network has a registry before install")
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
	if snap.RandDraws == 0 {
		t.Fatal("convergence consumed no RNG draws — counting source unwired?")
	}
}

// TestSnapshotCloneRefreshMatchesReference: after install, a refresh on
// the clone (what a mid-campaign incident triggers) draws exactly what
// a refresh on the reference draws — the RNG fast-forward at work — and
// both end in identical path state.
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
	if cold.rngSrc.Count() != warm.rngSrc.Count() {
		t.Fatalf("RNG positions diverged: reference %d, clone %d",
			cold.rngSrc.Count(), warm.rngSrc.Count())
	}
}

// TestSnapshotFileRoundTrip: snapshot -> serialize -> load -> install
// reproduces the reference's path state, the encoding is canonical
// (same state, same bytes), and up/down segment-object sharing is
// re-established on load.
func TestSnapshotFileRoundTrip(t *testing.T) {
	cold := buildNet(t, simnet.NewSim(time.Unix(0, 0)))
	defer cold.Close()
	cold.WarmPaths([][2]addr.IA{{lA, lC}})
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

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

	// Up stores reference the shared down segment objects, as beaconing
	// would have left them.
	for ia, db := range loaded.Registry.Up {
		for _, seg := range db.All() {
			found := false
			for _, d := range loaded.Registry.Down.All() {
				if d == seg {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("up segment %s of %v is a copy, not shared with the down store", seg.ID(), ia)
			}
		}
	}

	if loaded.RandDraws != snap.RandDraws || loaded.Beacon != snap.Beacon {
		t.Fatalf("loaded metadata differs: draws %d/%d, counters %+v vs %+v",
			loaded.RandDraws, snap.RandDraws, loaded.Beacon, snap.Beacon)
	}

	warm := buildWarmNet(t)
	defer warm.Close()
	if err := warm.InstallSnapshot(loaded); err != nil {
		t.Fatal(err)
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
	mis, err := BuildWarm(buildTopo(t), simnet.NewSim(time.Unix(0, 0)), Options{Seed: 2})
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
	if snap.Beacon.Verified == 0 {
		t.Fatal("PKI convergence verified no beacons")
	}

	warm, err := BuildWarm(buildTopo(t), simnet.NewSim(time.Unix(0, 0)), Options{Seed: 1, WithPKI: true})
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
	if got := warm.beaconMetrics.Verified.Load(); got != snap.Beacon.Verified {
		t.Fatalf("clone verified counter %d, snapshot %d", got, snap.Beacon.Verified)
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
