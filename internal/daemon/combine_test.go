package daemon_test

import (
	"testing"
	"time"

	"sciera/internal/combinator"
	"sciera/internal/core"
	"sciera/internal/simnet"
	"sciera/internal/topology"
)

// TestCombineCacheNotModified: when the TTL cache lapses but the
// control-plane segment stores are unchanged, the refetch resolves via
// the NotModified fast path — the memoized combination is served
// without recombining — and a control-plane refresh (new registry, new
// store generations) forces a real recombination and counts an
// invalidation.
func TestCombineCacheNotModified(t *testing.T) {
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n := buildNet(t, sim, core.Options{Seed: 1})
	defer n.Close()
	d, err := n.NewDaemon(lA)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.CacheTTL = 30 * time.Second

	first, err := lookupSync(t, sim, d, lB)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("no paths")
	}
	if hits, misses, _ := d.CombineStats(); hits != 0 || misses != 1 {
		t.Fatalf("after first lookup: %d hits, %d misses", hits, misses)
	}

	// TTL lapses; stores unchanged → NotModified → memoized combination.
	sim.RunFor(time.Minute)
	warm, err := lookupSync(t, sim, d, lB)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := d.CombineStats(); hits != 1 || misses != 1 {
		t.Fatalf("after warm lookup: %d hits, %d misses", hits, misses)
	}
	if len(warm) != len(first) {
		t.Fatalf("warm lookup returned %d paths, first %d", len(warm), len(first))
	}
	for i := range warm {
		if warm[i].Fingerprint != first[i].Fingerprint {
			t.Fatalf("warm path %d differs from first lookup", i)
		}
	}

	// A control-plane refresh after a second core circuit came up
	// publishes a changed core store (one that changed nothing would
	// publish the same stores, and stay NotModified): the echoed
	// generation no longer matches, the service sends full segments,
	// and the stale memo is replaced (counted as an invalidation).
	if _, err := n.AddRuntimeLink(c1, c2, topology.LinkCore, 25, "second-trunk"); err != nil {
		t.Fatal(err)
	}
	if err := n.RefreshControlPlane(); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Minute)
	if _, err := lookupSync(t, sim, d, lB); err != nil {
		t.Fatal(err)
	}
	hits, misses, inv := d.CombineStats()
	if hits != 1 || misses != 2 || inv != 1 {
		t.Fatalf("after refresh: %d hits, %d misses, %d invalidations", hits, misses, inv)
	}
}

// TestCombineCacheExpiryInvalidation: a memoized combination dies when
// the segments backing it pass their expiry, even though the store
// generation is unchanged — the daemon must not serve paths the data
// plane would reject.
func TestCombineCacheExpiryInvalidation(t *testing.T) {
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n := buildNet(t, sim, core.Options{Seed: 1})
	defer n.Close()
	d, err := n.NewDaemon(lA)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.CacheTTL = 30 * time.Second

	paths, err := lookupSync(t, sim, d, lB)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no paths")
	}

	// Cross every backing segment's expiry (hop ExpTime 63 ≈ 6h).
	sim.RunFor(8 * time.Hour)
	stale, err := lookupSync(t, sim, d, lB)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Now()
	for _, p := range stale {
		if !p.Expiry.After(now) {
			t.Fatalf("served an expired path (expiry %v, now %v)", p.Expiry, now)
		}
	}
	if _, _, inv := d.CombineStats(); inv == 0 {
		t.Fatal("segment expiry did not invalidate the memoized combination")
	}
}

// TestPathEntryLifecycle walks one destination's cache entry through
// every state it has — served within the TTL, lapsed and re-confirmed
// by NotModified, replaced after a control-plane refresh, dropped at
// segment expiry, flushed — and pins all six daemon counters after each
// step.
func TestPathEntryLifecycle(t *testing.T) {
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n := buildNet(t, sim, core.Options{Seed: 1})
	defer n.Close()
	d, err := n.NewDaemon(lA)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.CacheTTL = 30 * time.Second

	type counters struct{ lookups, hits, coalesced, cHits, cMisses, cInvalidations uint64 }
	steps := []struct {
		name    string
		before  func()
		lookups int // concurrent lookups issued in this step
		want    counters
	}{
		{"first lookup combines", nil, 1, counters{1, 0, 0, 0, 1, 0}},
		{"within the TTL the entry is served as is", nil, 1, counters{2, 1, 0, 0, 1, 0}},
		{"TTL lapsed, stores unchanged: NotModified re-confirms", func() { sim.RunFor(time.Minute) }, 1, counters{3, 1, 0, 1, 1, 0}},
		{"the re-confirmed entry is served within the TTL again", nil, 1, counters{4, 2, 0, 1, 1, 0}},
		{"a refresh after a new core circuit moves the generation: recombine, old entry invalidated", func() {
			if _, err := n.AddRuntimeLink(c1, c2, topology.LinkCore, 25, "second-trunk"); err != nil {
				t.Fatal(err)
			}
			if err := n.RefreshControlPlane(); err != nil {
				t.Fatal(err)
			}
			sim.RunFor(time.Minute)
		}, 1, counters{5, 2, 0, 1, 2, 1}},
		{"past segment expiry the entry is dropped unasked", func() { sim.RunFor(8 * time.Hour) }, 1, counters{6, 2, 0, 1, 3, 2}},
		{"a flush empties the cache: two lookups share one full fetch", d.FlushCache, 2, counters{8, 2, 1, 1, 4, 2}},
	}
	for _, step := range steps {
		if step.before != nil {
			step.before()
		}
		done := 0
		for i := 0; i < step.lookups; i++ {
			d.PathsAsync(lB, func(_ []*combinator.Path, err error) {
				if err != nil {
					t.Errorf("%s: %v", step.name, err)
				}
				done++
			})
		}
		sim.RunFor(10 * time.Second)
		if done != step.lookups {
			t.Fatalf("%s: %d of %d lookups completed", step.name, done, step.lookups)
		}
		var got counters
		got.lookups, got.hits = d.Stats()
		got.cHits, got.cMisses, got.cInvalidations = d.CombineStats()
		got.coalesced = uint64(n.Telemetry().Snapshot().Total("sciera_daemon_lookups_coalesced_total"))
		if got != step.want {
			t.Fatalf("%s: counters %+v, want %+v", step.name, got, step.want)
		}
	}
}
