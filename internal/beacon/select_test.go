package beacon

import (
	"math/rand"
	"testing"

	"sciera/internal/addr"
	"sciera/internal/cppki"
	"sciera/internal/scrypto"
	"sciera/internal/segment"
	"sciera/internal/topology"
)

// routeSeg builds a beacon-like segment visiting the given ASes.
func routeSeg(t *testing.T, ts uint32, beta uint16, ias ...addr.IA) *segment.Segment {
	t.Helper()
	key, _ := scrypto.NewHopCMAC(scrypto.DeriveHopKey([]byte("sel"), 0))
	s, err := segment.Originate(ts, beta, ias[0], 1, ias[1], 5, 63, key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ias); i++ {
		e := segment.ASEntry{IA: ias[i], Ingress: 2, ExpTime: 63}
		if i < len(ias)-1 {
			e.Egress = 3
			e.Next = ias[i+1]
		}
		if err := s.Extend(e, key); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestSelectBestK pins the selection policy: groups within the bound
// pass through untouched (same slice, same order); larger groups are
// pruned deterministically regardless of input order, keeping the
// shortest candidate and preferring disjoint alternatives over
// same-length overlapping ones.
func TestSelectBestK(t *testing.T) {
	ia := func(as addr.AS) addr.IA { return addr.MustIA(71, as) }
	origin := ia(1)
	short := routeSeg(t, 100, 1, origin, ia(2))                  // 2 hops
	overlapA := routeSeg(t, 100, 2, origin, ia(3), ia(4))        // via 3
	overlapB := routeSeg(t, 100, 3, origin, ia(3), ia(5), ia(4)) // via 3, longer
	disjoint := routeSeg(t, 100, 4, origin, ia(6), ia(7), ia(4)) // avoids 3

	entries := []*Entry{
		NewEntry(overlapB, 0), NewEntry(disjoint, 0), NewEntry(short, 0), NewEntry(overlapA, 0),
	}
	if got := SelectBestK(entries, 4); len(got) != 4 || &got[0] != &entries[0] {
		t.Fatal("group within the bound must pass through unchanged")
	}

	want := map[string]bool{}
	for _, e := range SelectBestK(entries, 3) {
		want[e.Seg.RouteID()] = true
	}
	if len(want) != 3 {
		t.Fatalf("selected %d routes, want 3", len(want))
	}
	if !want[short.RouteID()] {
		t.Error("shortest candidate not selected")
	}
	if !want[disjoint.RouteID()] {
		t.Error("disjoint candidate not selected over the overlapping longer one")
	}
	if want[overlapB.RouteID()] {
		t.Error("longest overlapping candidate survived selection")
	}

	// Input order must not matter.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]*Entry(nil), entries...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := map[string]bool{}
		for _, e := range SelectBestK(shuffled, 3) {
			got[e.Seg.RouteID()] = true
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: selection depends on input order", trial)
			}
		}
	}
}

// meshTopo builds a fully-meshed core of n ASes (71-1 … 71-n) with two
// leaves, dense enough that per-round same-origin acceptance groups
// exceed small best-K bounds.
func meshTopo(t testing.TB, n int) *topology.Topology {
	t.Helper()
	topo := topology.New()
	cores := make([]addr.IA, n)
	for i := range cores {
		cores[i] = addr.MustIA(71, addr.AS(1+i))
		if err := topo.AddAS(topology.ASInfo{IA: cores[i], Core: true}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if _, err := topo.AddLink(topology.LinkEnd{IA: cores[i]}, topology.LinkEnd{IA: cores[j]},
				topology.LinkCore, 5, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, leaf := range []addr.IA{addr.MustIA(71, 100), addr.MustIA(71, 101)} {
		if err := topo.AddAS(topology.ASInfo{IA: leaf}); err != nil {
			t.Fatal(err)
		}
		if _, err := topo.AddLink(topology.LinkEnd{IA: cores[i]}, topology.LinkEnd{IA: leaf},
			topology.LinkParent, 5, ""); err != nil {
			t.Fatal(err)
		}
	}
	return topo
}

// TestBestKBoundsFlood: on a dense core mesh the best-K bound prunes,
// and a pruned flood propagates strictly fewer beacons than an unbounded
// one.
func TestBestKBoundsFlood(t *testing.T) {
	topo := meshTopo(t, 8)
	signers, trcs, now := provisionRunnerPKI(t, topo)
	run := func(k int) *RunnerMetrics {
		r := &Runner{
			Topo: topo, Keys: rkey, Signers: signers,
			TRCs: trcs, Chains: cppki.NewChainCache(), VerifyAt: now,
			PropagateBestK: k,
			Timestamp:      uint32(now.Unix()),
			Metrics:        &RunnerMetrics{},
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		return r.Metrics
	}
	bounded, unbounded := run(2), run(-1)
	if bounded.Pruned.Load() == 0 {
		t.Fatal("best-K bound never pruned on the dense mesh; test exercises nothing")
	}
	if unbounded.Propagated.Load() <= bounded.Propagated.Load() {
		t.Errorf("unbounded run propagated %d, best-K run %d — bound had no effect",
			unbounded.Propagated.Load(), bounded.Propagated.Load())
	}
}
