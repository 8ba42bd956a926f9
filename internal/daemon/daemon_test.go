package daemon_test

import (
	"net/netip"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/core"
	"sciera/internal/cppki"
	"sciera/internal/daemon"
	"sciera/internal/simnet"
	"sciera/internal/topology"
)

var (
	c1 = addr.MustParseIA("71-1")
	c2 = addr.MustParseIA("71-2")
	lA = addr.MustParseIA("71-10")
	lB = addr.MustParseIA("71-11")
)

func buildNet(t testing.TB, sim *simnet.Sim, opts core.Options) *core.Network {
	t.Helper()
	topo := topology.New()
	for _, ia := range []addr.IA{c1, c2} {
		if err := topo.AddAS(topology.ASInfo{IA: ia, Core: true}); err != nil {
			t.Fatal(err)
		}
	}
	for _, ia := range []addr.IA{lA, lB} {
		if err := topo.AddAS(topology.ASInfo{IA: ia}); err != nil {
			t.Fatal(err)
		}
	}
	link := func(a, b addr.IA, typ topology.LinkType, lat float64) {
		if _, err := topo.AddLink(topology.LinkEnd{IA: a}, topology.LinkEnd{IA: b}, typ, lat, ""); err != nil {
			t.Fatal(err)
		}
	}
	link(c1, c2, topology.LinkCore, 20)
	link(c1, lA, topology.LinkParent, 5)
	link(c2, lB, topology.LinkParent, 5)
	n, err := core.Build(topo, sim, opts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func lookupSync(t *testing.T, sim *simnet.Sim, d *daemon.Daemon, dst addr.IA) ([]*combinator.Path, error) {
	t.Helper()
	var paths []*combinator.Path
	var lerr error
	done := false
	d.PathsAsync(dst, func(p []*combinator.Path, err error) {
		paths, lerr, done = p, err, true
	})
	sim.RunFor(10 * time.Second)
	if !done {
		t.Fatal("lookup did not complete")
	}
	return paths, lerr
}

func TestPathsLookupAndCache(t *testing.T) {
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n := buildNet(t, sim, core.Options{Seed: 1})
	defer n.Close()
	d, err := n.NewDaemon(lA)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	paths, err := lookupSync(t, sim, d, lB)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	for _, p := range paths {
		if p.Src != lA || p.Dst != lB {
			t.Errorf("endpoints %v -> %v", p.Src, p.Dst)
		}
	}
	// Second lookup hits the cache.
	if _, err := lookupSync(t, sim, d, lB); err != nil {
		t.Fatal(err)
	}
	lookups, hits := d.Stats()
	if lookups != 2 || hits != 1 {
		t.Errorf("stats = %d lookups, %d hits", lookups, hits)
	}
	// Flush clears it.
	d.FlushCache()
	if _, err := lookupSync(t, sim, d, lB); err != nil {
		t.Fatal(err)
	}
	if _, hits := d.Stats(); hits != 1 {
		t.Errorf("hits after flush = %d", hits)
	}
}

func TestLookupCoalescing(t *testing.T) {
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n := buildNet(t, sim, core.Options{Seed: 1})
	defer n.Close()
	d, err := n.NewDaemon(lA)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Fire several lookups for the same destination before the simulator
	// runs: the first owns the control-service fetch, the rest must park
	// on it (singleflight) and still each get their callback exactly
	// once when the fetch lands.
	const concurrent = 5
	calls := make([]int, concurrent)
	var got [][]*combinator.Path
	for i := 0; i < concurrent; i++ {
		i := i
		d.PathsAsync(lB, func(p []*combinator.Path, err error) {
			if err != nil {
				t.Errorf("lookup %d: %v", i, err)
			}
			calls[i]++
			got = append(got, p)
		})
	}
	sim.RunFor(10 * time.Second)
	for i, c := range calls {
		if c != 1 {
			t.Fatalf("callback %d invoked %d times, want 1", i, c)
		}
	}
	for i := 1; i < len(got); i++ {
		if len(got[i]) != len(got[0]) {
			t.Errorf("waiter %d got %d paths, owner got %d", i, len(got[i]), len(got[0]))
		}
	}
	snap := n.Telemetry().Snapshot()
	if v := snap.Total("sciera_daemon_lookups_coalesced_total"); v != concurrent-1 {
		t.Errorf("coalesced counter = %v, want %d", v, concurrent-1)
	}
	// All concurrent callers count as lookups, but only one control
	// request went out — a cache-fresh follow-up proves the result was
	// cached once.
	if lookups, hits := d.Stats(); lookups != concurrent || hits != 0 {
		t.Errorf("stats = %d lookups, %d hits", lookups, hits)
	}
	if _, err := lookupSync(t, sim, d, lB); err != nil {
		t.Fatal(err)
	}
	if _, hits := d.Stats(); hits != 1 {
		t.Errorf("follow-up was not a cache hit (%d hits)", hits)
	}

	// Pathless results resolve every coalesced waiter too.
	bogus := addr.MustParseIA("99-999")
	resolved := 0
	for i := 0; i < 3; i++ {
		d.PathsAsync(bogus, func(p []*combinator.Path, err error) {
			if len(p) != 0 {
				t.Errorf("unknown AS returned %d paths", len(p))
			}
			resolved++
		})
	}
	sim.RunFor(10 * time.Second)
	if resolved != 3 {
		t.Errorf("pathless lookups resolved = %d, want 3", resolved)
	}
	if v := n.Telemetry().Snapshot().Total("sciera_daemon_lookups_coalesced_total"); v != concurrent-1+2 {
		t.Errorf("coalesced counter after error round = %v, want %d", v, concurrent-1+2)
	}
}

func TestCacheExpiresWithTTL(t *testing.T) {
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n := buildNet(t, sim, core.Options{Seed: 1})
	defer n.Close()
	d, _ := n.NewDaemon(lA)
	defer d.Close()
	d.CacheTTL = 30 * time.Second

	if _, err := lookupSync(t, sim, d, lB); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Minute) // TTL passes
	if _, err := lookupSync(t, sim, d, lB); err != nil {
		t.Fatal(err)
	}
	if _, hits := d.Stats(); hits != 0 {
		t.Errorf("hits = %d, want 0 after TTL expiry", hits)
	}
}

func TestLocalASPaths(t *testing.T) {
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n := buildNet(t, sim, core.Options{Seed: 1})
	defer n.Close()
	d, _ := n.NewDaemon(lA)
	defer d.Close()
	paths, err := lookupSync(t, sim, d, lA)
	if err != nil || len(paths) != 1 || paths[0].Fingerprint != "empty" {
		t.Fatalf("local paths = %v, %v", paths, err)
	}
}

func TestFetchTRC(t *testing.T) {
	sim := simnet.NewSim(time.Now())
	n := buildNet(t, sim, core.Options{Seed: 1, WithPKI: true})
	defer n.Close()
	d, _ := n.NewDaemon(lA)
	defer d.Close()

	var got *cppki.TRC
	var trcErr error
	d.FetchTRCAsync(71, func(trc *cppki.TRC, err error) { got, trcErr = trc, err })
	sim.RunFor(10 * time.Second)
	if trcErr != nil {
		t.Fatal(trcErr)
	}
	if got == nil || got.ISD != 71 {
		t.Fatalf("trc = %+v", got)
	}
	// The TRC is now in the daemon's verified store.
	if _, ok := d.TRCs().Get(71); !ok {
		t.Error("TRC not stored")
	}
	// Unknown ISD errors.
	trcErr = nil
	d.FetchTRCAsync(99, func(trc *cppki.TRC, err error) { trcErr = err })
	sim.RunFor(10 * time.Second)
	if trcErr == nil {
		t.Error("unknown ISD TRC fetch succeeded")
	}
}

func TestInfoAccessors(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	n := buildNet(t, sim, core.Options{Seed: 1})
	defer n.Close()
	d, _ := n.NewDaemon(lA)
	defer d.Close()
	if d.LocalIA() != lA {
		t.Errorf("LocalIA = %v", d.LocalIA())
	}
	info := d.Info()
	if !info.RouterAddr.IsValid() || !info.ControlAddr.IsValid() {
		t.Errorf("info = %+v", info)
	}
	if d.TRCs() == nil {
		t.Error("TRCs nil")
	}
	if _, err := daemon.New(sim, daemon.Info{LocalIA: lA}, netip.AddrPort{}); err != nil {
		t.Errorf("daemon with zero CS addr should still construct: %v", err)
	}
}

// TestFetchTRCCallbackMayReenter: the TRC callback runs outside the
// daemon's lock, like every lookup callback, so it may call back into
// the daemon — here a path lookup chained onto a fetched TRC.
func TestFetchTRCCallbackMayReenter(t *testing.T) {
	sim := simnet.NewSim(time.Now())
	n := buildNet(t, sim, core.Options{Seed: 1, WithPKI: true})
	defer n.Close()
	d, _ := n.NewDaemon(lA)
	defer d.Close()

	finished := make(chan int, 1)
	go func() {
		resolved := 0
		d.FetchTRCAsync(71, func(_ *cppki.TRC, err error) {
			if err != nil {
				t.Errorf("TRC fetch: %v", err)
			}
			d.FlushCache()
			d.PathsAsync(lB, func(p []*combinator.Path, err error) {
				if err != nil {
					t.Errorf("chained lookup: %v", err)
				}
				resolved = len(p)
			})
		})
		sim.RunFor(10 * time.Second)
		finished <- resolved
	}()
	select {
	case resolved := <-finished:
		if resolved == 0 {
			t.Fatal("the lookup chained onto the TRC callback resolved no paths")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("TRC callback re-entering the daemon deadlocked")
	}
}
