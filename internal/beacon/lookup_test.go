package beacon

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/scenario"
	"sciera/internal/segment"
	"sciera/internal/topology"
)

// memoRegistry converges runnerTopo and primes the memo for two pairs
// with different sources.
func memoRegistry(t *testing.T) (*Registry, [][2]addr.IA) {
	t.Helper()
	reg, err := (&Runner{Topo: runnerTopo(t), Keys: rkey, Timestamp: 500}).Run()
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]addr.IA{{rlA, rlB}, {rlB, rlA}}
	for _, p := range pairs {
		if len(reg.Paths(p[0], p[1])) == 0 {
			t.Fatalf("no paths %v->%v", p[0], p[1])
		}
	}
	return reg, pairs
}

// TestRegistryPathsZeroAlloc guards the memo's hit path — two stamp
// reads and one map probe, no allocation — on a registry and on its
// clone, which must serve the source's own slices, not recombinations,
// and then hit under its own token.
func TestRegistryPathsZeroAlloc(t *testing.T) {
	reg, pairs := memoRegistry(t)
	clone := reg.Clone()
	for _, p := range pairs {
		if &clone.Paths(p[0], p[1])[0] != &reg.Paths(p[0], p[1])[0] {
			t.Fatalf("%v->%v: clone did not serve the source's memoized combination", p[0], p[1])
		}
	}
	for name, r := range map[string]*Registry{"registry": reg, "clone": clone} {
		if allocs := testing.AllocsPerRun(200, func() {
			for _, p := range pairs {
				r.Paths(p[0], p[1])
			}
		}); allocs != 0 {
			t.Errorf("%s: memoized lookup allocates %.1f per run, want 0", name, allocs)
		}
	}
}

// TestCloneDropsStaleMemo: a clone never serves an entry combined
// before a store moved (TestRegistryPathsZeroAlloc has the converse: on
// unmoved stores it serves every one).
func TestCloneDropsStaleMemo(t *testing.T) {
	reg, pairs := memoRegistry(t)
	reg.Down.Clear()
	clone := reg.Clone()
	for _, p := range pairs {
		if got := clone.Paths(p[0], p[1]); len(got) != 0 {
			t.Fatalf("clone served %d paths %v->%v although the down store was cleared", len(got), p[0], p[1])
		}
	}
}

// TestZeroRegistryMemo: a registry assembled as a struct literal (the
// snapshot loader does) memoizes like one the runner returned.
func TestZeroRegistryMemo(t *testing.T) {
	src, pairs := memoRegistry(t)
	reg := &Registry{Core: src.Core, Down: src.Down}
	p := pairs[0]
	first, again := reg.Paths(p[0], p[1]), reg.Paths(p[0], p[1])
	if len(first) != len(src.Paths(p[0], p[1])) || len(reg.memo) != 1 || &again[0] != &first[0] {
		t.Fatalf("literal registry: %d paths, %d memo entries, second lookup recombined: %v",
			len(first), len(reg.memo), &again[0] != &first[0])
	}
}

// rawPath is a path's data-plane bytes.
func rawPath(t testing.TB, p *combinator.Path) []byte {
	t.Helper()
	b := make([]byte, p.Raw.Len())
	if err := p.Raw.SerializeTo(b); err != nil {
		t.Fatal(err)
	}
	return b
}

// pathsAsFresh returns reg.Paths(src, dst) after holding it to a fresh
// Combine over what Lookup selects: the same fingerprints and raw path
// bytes, in the same order.
func pathsAsFresh(t testing.TB, when string, reg *Registry, src, dst addr.IA) []*combinator.Path {
	t.Helper()
	got := reg.Paths(src, dst)
	ups, cores, downs := reg.Lookup(src, dst)
	want := combinator.Combine(src, dst, ups, cores, downs)
	if len(got) != len(want) {
		t.Fatalf("%s: %v->%v: %d paths, a fresh combination %d", when, src, dst, len(got), len(want))
	}
	for i := range got {
		if got[i].Fingerprint != want[i].Fingerprint || !bytes.Equal(rawPath(t, got[i]), rawPath(t, want[i])) {
			t.Fatalf("%s: %v->%v: path %d is %s, a fresh combination's %s", when, src, dst, i, got[i].Fingerprint, want[i].Fingerprint)
		}
	}
	return got
}

// TestPathsCarriedAcrossRefresh: over eight seeded core flaps on the
// churn topology, each refresh started from the last, every vantage
// pair's Paths on the new registry equals a fresh combination; a pair
// whose Lookup selects, pointer for pointer, what it selected on the
// previous registry gets the previous registry's very slice, and a pair
// whose selection moved gets a new one. Both kinds must occur.
func TestPathsCarriedAcrossRefresh(t *testing.T) {
	sc, err := scenario.Resolve("gen:isds=3,ases=200,cores=8,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	run := func(prev *Registry) *Registry {
		reg, err := (&Runner{Topo: topo, Keys: rkey, Timestamp: 1000, BestPerOrigin: sc.Campaign.BestPerOrigin}).RunFrom(prev)
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	var pairs [][2]addr.IA
	for _, a := range sc.Vantage {
		for _, b := range sc.Vantage {
			if a != b {
				pairs = append(pairs, [2]addr.IA{a, b})
			}
		}
	}
	var core []*topology.Link
	for _, l := range topo.Links() {
		if l.Type == topology.LinkCore {
			core = append(core, l)
		}
	}
	type selection struct{ ups, cores, downs []*segment.Segment }
	reg := run(nil)
	paths := make(map[[2]addr.IA][]*combinator.Path)
	sel := make(map[[2]addr.IA]selection)
	for _, p := range pairs {
		paths[p] = pathsAsFresh(t, "converge", reg, p[0], p[1])
		ups, cores, downs := reg.Lookup(p[0], p[1])
		sel[p] = selection{ups, cores, downs}
	}
	rng := rand.New(rand.NewSource(42))
	var down *topology.Link
	carried, moved := 0, 0
	for flap := 1; flap <= 8; flap++ {
		l, up := down, true
		if down = nil; l == nil {
			l, up = core[rng.Intn(len(core))], false
			down = l
		}
		if err := topo.SetLinkUp(l.ID, up); err != nil {
			t.Fatal(err)
		}
		reg = run(reg)
		for _, p := range pairs {
			ups, cores, downs := reg.Lookup(p[0], p[1])
			was := sel[p]
			same := slices.Equal(ups, was.ups) && slices.Equal(cores, was.cores) && slices.Equal(downs, was.downs)
			got := pathsAsFresh(t, "after a flap", reg, p[0], p[1])
			if old := paths[p]; len(got) > 0 && len(old) > 0 && (&got[0] == &old[0]) != same {
				t.Fatalf("flap %d (link %d up=%v): %v->%v: selection unchanged %v, previous slice served %v",
					flap, l.ID, up, p[0], p[1], same, &got[0] == &old[0])
			}
			if same {
				carried++
			} else {
				moved++
			}
			paths[p], sel[p] = got, selection{ups, cores, downs}
		}
	}
	t.Logf("%d lookups carried their paths across a refresh, %d recombined", carried, moved)
	if carried == 0 || moved == 0 {
		t.Fatalf("%d lookups carried, %d recombined; want both", carried, moved)
	}
}
