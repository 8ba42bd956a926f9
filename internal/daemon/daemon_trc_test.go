package daemon_test

import (
	"net/netip"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/beacon"
	"sciera/internal/control"
	"sciera/internal/core"
	"sciera/internal/cppki"
	"sciera/internal/daemon"
	"sciera/internal/pathdb"
	"sciera/internal/simnet"
)

// trcHarness wires a daemon to a standalone control service whose TRC
// store the test mutates directly — the setup for exercising the full
// base + chained-update verification flow.
func trcHarness(t *testing.T, sim *simnet.Sim, store *cppki.Store) *daemon.Daemon {
	t.Helper()
	emptyReg := &beacon.Registry{Core: pathdb.New(), Down: pathdb.New()}
	svc := &control.Service{
		IA:       c1,
		Registry: func() *beacon.Registry { return emptyReg },
		TRCs:     func() *cppki.Store { return store },
	}
	if err := svc.Start(sim, netip.AddrPortFrom(sim.AllocAddr(), 30252)); err != nil {
		t.Fatal(err)
	}
	d, err := daemon.New(sim, daemon.Info{
		LocalIA:     lA,
		RouterAddr:  netip.AddrPortFrom(sim.AllocAddr(), 30042),
		ControlAddr: svc.Addr(),
	}, netip.AddrPortFrom(sim.AllocAddr(), 0))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func fetchTRC(t *testing.T, sim *simnet.Sim, d *daemon.Daemon, isd addr.ISD) (*cppki.TRC, error) {
	t.Helper()
	var got *cppki.TRC
	var ferr error
	done := false
	d.FetchTRCAsync(isd, func(trc *cppki.TRC, err error) { got, ferr, done = trc, err, true })
	sim.RunFor(10 * time.Second)
	if !done {
		t.Fatal("TRC fetch did not complete")
	}
	return got, ferr
}

// TestFetchTRCChainedUpdate drives the daemon through the complete TRC
// lifecycle: trust the base TRC, verify and apply a quorum-signed
// successor, and reject a stale re-announcement of the same serial.
func TestFetchTRCChainedUpdate(t *testing.T) {
	now := time.Now()
	sim := simnet.NewSim(now)
	cores := []addr.IA{c1, c2}
	prov, err := cppki.ProvisionISD(71, cores, cores, cppki.ProvisionOptions{
		NotBefore: now.Add(-time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	store := cppki.NewStore()
	if err := store.AddTrusted(prov.TRC, now); err != nil {
		t.Fatal(err)
	}
	d := trcHarness(t, sim, store)
	defer d.Close()

	// Base TRC: verified as trust anchor.
	base, err := fetchTRC(t, sim, d, 71)
	if err != nil {
		t.Fatal(err)
	}
	if base.Serial != 1 {
		t.Fatalf("base serial = %d", base.Serial)
	}

	// The ISD rotates to a successor TRC; the control service now
	// serves serial 2.
	next, err := cppki.UpdateTRC(prov.TRC, prov.RootKeys, cores, now)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Update(next, now); err != nil {
		t.Fatal(err)
	}
	got, err := fetchTRC(t, sim, d, 71)
	if err != nil {
		t.Fatalf("chained update rejected: %v", err)
	}
	if got.Serial != 2 {
		t.Fatalf("updated serial = %d, want 2", got.Serial)
	}
	stored, ok := d.TRCs().Get(71)
	if !ok || stored.Serial != 2 {
		t.Fatalf("daemon store has serial %v", stored)
	}

	// Re-fetching the same serial is not a valid successor.
	if _, err := fetchTRC(t, sim, d, 71); err == nil {
		t.Error("stale TRC re-announcement accepted as update")
	}
}

// TestPathsBlocking covers the synchronous Paths wrapper, which needs a
// live-driven simulator to complete the round trip.
func TestPathsBlocking(t *testing.T) {
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n := buildNet(t, sim, core.Options{Seed: 1})
	defer n.Close()
	d, err := n.NewDaemon(lA)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); sim.RunLive(stop) }()
	defer func() { close(stop); <-done }()

	paths, err := d.Paths(lB)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("blocking lookup returned no paths")
	}
}
