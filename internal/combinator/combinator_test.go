package combinator_test

import (
	"math/rand"
	"testing"

	"sciera/internal/addr"
	"sciera/internal/beacon"
	. "sciera/internal/combinator"
	"sciera/internal/scrypto"
	"sciera/internal/spath"
	"sciera/internal/topology"
)

var (
	c1 = addr.MustParseIA("71-1")
	c2 = addr.MustParseIA("71-2")
	c3 = addr.MustParseIA("71-3")
	lA = addr.MustParseIA("71-10")
	lB = addr.MustParseIA("71-11")
	lC = addr.MustParseIA("71-12")
)

func keyOf(ia addr.IA) scrypto.HopKey {
	return scrypto.DeriveHopKey([]byte(ia.String()), 0)
}

// testNet builds the beacon registry for a small two-tier topology with
// parallel core links (multipath) and a peer link.
func testNet(t testing.TB) (*topology.Topology, *beacon.Registry) {
	t.Helper()
	topo := topology.New()
	for _, ia := range []addr.IA{c1, c2, c3} {
		if err := topo.AddAS(topology.ASInfo{IA: ia, Core: true}); err != nil {
			t.Fatal(err)
		}
	}
	for _, ia := range []addr.IA{lA, lB, lC} {
		if err := topo.AddAS(topology.ASInfo{IA: ia}); err != nil {
			t.Fatal(err)
		}
	}
	link := func(a, b addr.IA, typ topology.LinkType, lat float64) {
		if _, err := topo.AddLink(topology.LinkEnd{IA: a}, topology.LinkEnd{IA: b}, typ, lat, ""); err != nil {
			t.Fatal(err)
		}
	}
	link(c1, c2, topology.LinkCore, 10)
	link(c1, c2, topology.LinkCore, 30)
	link(c2, c3, topology.LinkCore, 10)
	link(c1, c3, topology.LinkCore, 50)
	link(c1, lA, topology.LinkParent, 5)
	link(c2, lB, topology.LinkParent, 5)
	link(c3, lC, topology.LinkParent, 5)
	link(lA, lB, topology.LinkPeer, 3)

	r := &beacon.Runner{
		Topo:      topo,
		Keys:      keyOf,
		Timestamp: 1000,
	}
	reg, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return topo, reg
}

// combineFromRegistry performs the lookup a daemon would: fetch the
// source's up segments, all core segments, and the destination's down
// segments, then combine.
func combineFromRegistry(reg *beacon.Registry, src, dst addr.IA, _ *topology.Topology) []*Path {
	ups := reg.Ups(src)
	downs := reg.Down.Get(0, dst)
	cores := reg.Core.All()
	return Combine(src, dst, ups, cores, downs)
}

func TestRunnerProducesSegments(t *testing.T) {
	_, reg := testNet(t)
	if reg.Core.Len() == 0 {
		t.Fatal("no core segments")
	}
	// Core segments from c1 to c3 must include direct and via-c2 routes.
	c1c3 := reg.Core.Get(c1, c3)
	if len(c1c3) < 3 {
		t.Errorf("core segments c1->c3 = %d, want >= 3 (direct + 2 parallel via c2)", len(c1c3))
	}
	// Up segments exist for every leaf.
	for _, leaf := range []addr.IA{lA, lB, lC} {
		if len(reg.Ups(leaf)) == 0 {
			t.Errorf("no up segments for %v", leaf)
		}
	}
	// Every registered segment's MACs verify with the per-AS keys.
	for _, s := range append(reg.Core.All(), reg.Down.All()...) {
		if err := s.VerifyMACs(func(ia addr.IA) (scrypto.HopKey, bool) { return keyOf(ia), true }); err != nil {
			t.Fatalf("segment %v: %v", s, err)
		}
	}
}

func TestCombineLeafToLeaf(t *testing.T) {
	topo, reg := testNet(t)
	paths := combineFromRegistry(reg, lA, lC, topo)
	if len(paths) < 3 {
		t.Fatalf("paths lA->lC = %d, want >= 3", len(paths))
	}
	for _, p := range paths {
		verifyWalk(t, topo, p)
	}
	// Sorted by hops then latency: the first path should be the 4-hop
	// route via the direct c1-c3 link or via c2's short links.
	if paths[0].NumHops() > paths[1].NumHops() {
		t.Error("paths not sorted by hop count")
	}
	// All paths must start at lA and end at lC.
	for _, p := range paths {
		ases := p.ASes()
		if ases[0] != lA || ases[len(ases)-1] != lC {
			t.Errorf("path endpoints = %v", ases)
		}
	}
}

func TestCombineCoreToCore(t *testing.T) {
	topo, reg := testNet(t)
	paths := combineFromRegistry(reg, c1, c3, topo)
	if len(paths) < 3 {
		t.Fatalf("paths c1->c3 = %d, want >= 3", len(paths))
	}
	for _, p := range paths {
		verifyWalk(t, topo, p)
	}
	// Both traversal directions of stored core segments must appear:
	// some path uses a segment built c3->c1 (ConsDir=false).
	foundRev := false
	for _, p := range paths {
		if !p.Raw.Infos[0].ConsDir {
			foundRev = true
		}
	}
	if !foundRev {
		t.Log("note: no reverse-direction core segment used (acceptable but unusual)")
	}
}

func TestCombineLeafToCore(t *testing.T) {
	topo, reg := testNet(t)
	up := combineFromRegistry(reg, lA, c3, topo)
	if len(up) == 0 {
		t.Fatal("no paths lA->c3")
	}
	for _, p := range up {
		verifyWalk(t, topo, p)
	}
	down := combineFromRegistry(reg, c3, lA, topo)
	if len(down) == 0 {
		t.Fatal("no paths c3->lA")
	}
	for _, p := range down {
		verifyWalk(t, topo, p)
	}
}

func TestCombineSameUpDownCore(t *testing.T) {
	topo, reg := testNet(t)
	// lA and lB attach to different cores; still reachable via core seg.
	paths := combineFromRegistry(reg, lA, lB, topo)
	if len(paths) == 0 {
		t.Fatal("no paths lA->lB")
	}
	for _, p := range paths {
		verifyWalk(t, topo, p)
	}
}

func TestCombineSelf(t *testing.T) {
	_, reg := testNet(t)
	if paths := combineFromRegistry(reg, lA, lA, nil); paths != nil {
		t.Errorf("self paths = %v", paths)
	}
}

func TestReversedPathVerifies(t *testing.T) {
	topo, reg := testNet(t)
	paths := combineFromRegistry(reg, lA, lC, topo)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	rev, err := paths[0].Reversed()
	if err != nil {
		t.Fatal(err)
	}
	if rev.Src != lC || rev.Dst != lA {
		t.Errorf("reversed endpoints = %v -> %v", rev.Src, rev.Dst)
	}
	verifyWalk(t, topo, rev)
	// Reversing twice restores the original fingerprint.
	rev2, err := rev.Reversed()
	if err != nil {
		t.Fatal(err)
	}
	if rev2.Fingerprint != paths[0].Fingerprint {
		t.Error("double reversal changed the fingerprint")
	}
}

func TestDisjointness(t *testing.T) {
	topo, reg := testNet(t)
	paths := combineFromRegistry(reg, lA, lC, topo)
	if len(paths) < 2 {
		t.Fatal("need >= 2 paths")
	}
	if got := Disjointness(paths[0], paths[0]); got != 0 {
		t.Errorf("self-disjointness = %v, want 0", got)
	}
	for i := 1; i < len(paths); i++ {
		d := Disjointness(paths[0], paths[i])
		if d <= 0 || d > 1 {
			t.Errorf("disjointness(0,%d) = %v out of (0,1]", i, d)
		}
	}
	// Symmetry.
	if Disjointness(paths[0], paths[1]) != Disjointness(paths[1], paths[0]) {
		t.Error("disjointness not symmetric")
	}
	empty := &Path{}
	if Disjointness(empty, empty) != 1 {
		t.Error("empty paths should count as disjoint")
	}
}

func TestPathMetadata(t *testing.T) {
	topo, reg := testNet(t)
	paths := combineFromRegistry(reg, lA, lC, topo)
	for _, p := range paths {
		if p.LatencyMS <= 0 {
			t.Errorf("path %s latency = %v", p.Fingerprint, p.LatencyMS)
		}
		if p.MTU == 0 || p.MTU == ^uint16(0) {
			t.Errorf("path MTU = %d", p.MTU)
		}
		if p.Expiry.IsZero() {
			t.Error("path expiry unset")
		}
		if p.NumHops() < 2 {
			t.Errorf("leaf-to-leaf path with %d hops", p.NumHops())
		}
		if len(p.Interfaces)%2 != 0 {
			t.Errorf("odd interface count %d", len(p.Interfaces))
		}
	}
	// The best path lA->lC latency: via c1 then direct 50ms link is
	// 5+50+5=60; via c2: 5+10+10+5=30. The minimum-latency path must be 30.
	best := paths[0]
	for _, p := range paths {
		if p.LatencyMS < best.LatencyMS {
			best = p
		}
	}
	if best.LatencyMS != 30 {
		t.Errorf("best latency = %v, want 30", best.LatencyMS)
	}
}

// verifyWalk simulates the chain of border routers processing the path:
// it checks hop MACs with each AS's key, validates interface consistency
// against the topology, and confirms the packet arrives at Dst.
func verifyWalk(t testing.TB, topo *topology.Topology, p *Path) {
	t.Helper()
	raw := p.Raw.Copy()
	cur := p.Src
	for {
		info, err := raw.CurrentInfo()
		if err != nil {
			t.Fatalf("path %s: %v", p.Fingerprint, err)
		}
		hop, err := raw.CurrentHop()
		if err != nil {
			t.Fatalf("path %s: %v", p.Fingerprint, err)
		}
		// Mirror the border router: peer-crossing boundary hops verify
		// against the accumulator as-is, all others fold/advance.
		peerCross := info.Peer &&
			((info.ConsDir && raw.IsFirstHopOfSegment()) ||
				(!info.ConsDir && raw.IsLastHopOfSegment()))
		var ok bool
		if peerCross {
			ok = spath.VerifyPeerHop(keyOf(cur), info, hop)
		} else {
			ok = spath.VerifyHop(keyOf(cur), info, hop)
		}
		if !ok {
			t.Fatalf("path %s: MAC verification failed at %v (hop %d)", p.Fingerprint, cur, raw.CurrHF)
		}
		egress := spath.DataEgress(info, hop)
		if raw.IsLastHop() {
			if egress != 0 {
				t.Fatalf("path %s: terminal hop has egress %d", p.Fingerprint, egress)
			}
			break // delivered
		}
		if raw.IsLastHopOfSegment() && !(peerCross && egress != 0) {
			// Segment crossover within the same AS (core joint or
			// shortcut); a peer boundary hop with an egress instead
			// forwards across the peering link.
			if err := raw.IncHop(); err != nil {
				t.Fatalf("path %s: %v", p.Fingerprint, err)
			}
			continue
		}
		if egress == 0 {
			t.Fatalf("path %s: non-boundary hop at %v without egress", p.Fingerprint, cur)
		}
		link, okL := topo.LinkAt(topology.LinkEnd{IA: cur, IfID: egress})
		if !okL {
			t.Fatalf("path %s: no link at %v#%d", p.Fingerprint, cur, egress)
		}
		next, _ := link.Other(cur)
		cur = next.IA
		if err := raw.IncHop(); err != nil {
			t.Fatalf("path %s: %v", p.Fingerprint, err)
		}
		// After crossing, the new current hop's data ingress must match
		// the interface we arrived on.
		info2, _ := raw.CurrentInfo()
		hop2, _ := raw.CurrentHop()
		if in := spath.DataIngress(info2, hop2); in != 0 && in != next.IfID {
			t.Fatalf("path %s: arrived at %v#%d but hop expects ingress %d",
				p.Fingerprint, next.IA, next.IfID, in)
		}
	}
	if cur != p.Dst {
		t.Fatalf("path %s: walk ended at %v, want %v", p.Fingerprint, cur, p.Dst)
	}
}

func BenchmarkCombine(b *testing.B) {
	topo, reg := testNet(b)
	ups := reg.Ups(lA)
	cores := reg.Core.All()
	downs := reg.Down.Get(0, lC)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if paths := Combine(lA, lC, ups, cores, downs); len(paths) == 0 {
			b.Fatal("no paths")
		}
	}
	_ = topo
}

// disjointnessMap is the set-building Disjointness this package shipped
// before the direct slice comparison, kept as the oracle.
func disjointnessMap(p, q *Path) float64 {
	total := len(p.Interfaces) + len(q.Interfaces)
	if total == 0 {
		return 1
	}
	inP := make(map[PathInterface]bool, len(p.Interfaces))
	for _, i := range p.Interfaces {
		inP[i] = true
	}
	shared := 0
	for _, i := range q.Interfaces {
		if inP[i] {
			shared++
		}
	}
	return float64(total-2*shared) / float64(total)
}

// TestDisjointnessMatchesMapOracle compares the two on seeded random
// paths drawn from a small interface pool, so that shared interfaces,
// interfaces repeated within one path, identical paths and empty paths
// all occur.
func TestDisjointnessMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	randPath := func() *Path {
		p := &Path{}
		for n := rng.Intn(9); n > 0; n-- {
			p.Interfaces = append(p.Interfaces, PathInterface{
				IA:   addr.MustIA(71, addr.AS(1+rng.Intn(4))),
				IfID: uint16(1 + rng.Intn(3)),
			})
		}
		return p
	}
	for i := 0; i < 5000; i++ {
		p, q := randPath(), randPath()
		if i%10 == 0 {
			q = p
		}
		if got, want := Disjointness(p, q), disjointnessMap(p, q); got != want {
			t.Fatalf("Disjointness(%v, %v) = %v, map oracle %v", p.Interfaces, q.Interfaces, got, want)
		}
	}
	p, q := randPath(), randPath()
	if allocs := testing.AllocsPerRun(100, func() { Disjointness(p, q) }); allocs != 0 {
		t.Errorf("Disjointness allocates %.0f times per call", allocs)
	}
}
