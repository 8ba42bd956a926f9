package beacon

import (
	"testing"

	"sciera/internal/addr"
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
// clone, whose entries must be the source's own slices carried over
// under the clone's tokens, not recombinations.
func TestRegistryPathsZeroAlloc(t *testing.T) {
	reg, pairs := memoRegistry(t)
	clone := reg.Clone()
	for _, p := range pairs {
		if e := clone.memo[p]; e.token != clone.Token(p[0]) || &e.paths[0] != &reg.Paths(p[0], p[1])[0] {
			t.Fatalf("%v->%v: clone did not carry the source's memoized combination under its own token", p[0], p[1])
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

// TestCloneDropsStaleMemo: an entry combined before a store moved is not
// carried into a clone (TestRegistryPathsZeroAlloc has the converse: on
// unmoved stores every entry is).
func TestCloneDropsStaleMemo(t *testing.T) {
	reg, pairs := memoRegistry(t)
	reg.Down.Clear()
	clone := reg.Clone()
	for _, p := range pairs {
		if _, ok := clone.memo[p]; ok {
			t.Fatalf("clone carried %v->%v although the down store changed", p[0], p[1])
		}
	}
	if got := clone.Paths(rlA, rlB); len(got) != 0 {
		t.Fatalf("%d paths from an AS with no up segments", len(got))
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
