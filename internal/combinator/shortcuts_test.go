package combinator_test

import (
	"testing"

	"sciera/internal/addr"
	"sciera/internal/beacon"
	. "sciera/internal/combinator"
	"sciera/internal/spath"
	"sciera/internal/topology"
)

// TestPeerPath asserts that the lA-lB peering link of testNet yields a
// direct one-hop path, that the path carries Peer-flagged info fields,
// and that it passes the router verification walk in both directions.
func TestPeerPath(t *testing.T) {
	topo, reg := testNet(t)
	paths := combineFromRegistry(reg, lA, lB, topo)
	var peer *Path
	for _, p := range paths {
		if p.NumHops() == 1 {
			peer = p
			break
		}
	}
	if peer == nil {
		t.Fatalf("no 1-hop peer path lA->lB among %d paths", len(paths))
	}
	if peer.LatencyMS != 3 {
		t.Errorf("peer path latency = %v, want 3 (the peer link)", peer.LatencyMS)
	}
	if got := peer.ASes(); len(got) != 2 || got[0] != lA || got[1] != lB {
		t.Errorf("peer path ASes = %v, want [lA lB]", got)
	}
	for i, inf := range peer.Raw.Infos {
		if !inf.Peer {
			t.Errorf("info %d not Peer-flagged", i)
		}
	}
	verifyWalk(t, topo, peer)

	// The peer link works in the other direction too.
	back := combineFromRegistry(reg, lB, lA, topo)
	found := false
	for _, p := range back {
		if p.NumHops() == 1 {
			verifyWalk(t, topo, p)
			found = true
		}
	}
	if !found {
		t.Error("no 1-hop peer path lB->lA")
	}

	// Sorting places the 1-hop peer path first.
	if paths[0].NumHops() != 1 {
		t.Errorf("first path has %d hops, want the peer path first", paths[0].NumHops())
	}
}

// TestPeerPathReversed checks fresh-path reversal of a peer path: the
// boundary hops' MACs must stay outside the accumulator fixup.
func TestPeerPathReversed(t *testing.T) {
	topo, reg := testNet(t)
	paths := combineFromRegistry(reg, lA, lB, topo)
	for _, p := range paths {
		if p.NumHops() != 1 {
			continue
		}
		rev, err := p.Reversed()
		if err != nil {
			t.Fatal(err)
		}
		if rev.Src != lB || rev.Dst != lA {
			t.Errorf("reversed endpoints = %v -> %v", rev.Src, rev.Dst)
		}
		verifyWalk(t, topo, rev)
		rev2, err := rev.Reversed()
		if err != nil {
			t.Fatal(err)
		}
		if rev2.Fingerprint != p.Fingerprint {
			t.Error("double reversal changed the fingerprint")
		}
		verifyWalk(t, topo, rev2)
		return
	}
	t.Fatal("no peer path to reverse")
}

// TestPeerHopTamperRejected flips bits in the peer-crossing hop and the
// accumulator and checks that VerifyPeerHop rejects both.
func TestPeerHopTamperRejected(t *testing.T) {
	topo, reg := testNet(t)
	paths := combineFromRegistry(reg, lA, lB, topo)
	for _, p := range paths {
		if p.NumHops() != 1 {
			continue
		}
		info := p.Raw.Infos[0]
		hop := p.Raw.Hops[0]
		if !spath.VerifyPeerHop(keyOf(lA), &info, &hop) {
			t.Fatal("genuine peer hop failed verification")
		}
		bad := hop
		bad.MAC[0] ^= 1
		if spath.VerifyPeerHop(keyOf(lA), &info, &bad) {
			t.Error("tampered peer MAC accepted")
		}
		badInfo := info
		badInfo.SegID ^= 0x40
		if spath.VerifyPeerHop(keyOf(lA), &badInfo, &hop) {
			t.Error("tampered accumulator accepted")
		}
		badHop := hop
		badHop.ConsEgress ^= 0x7 // splice to a different egress
		if spath.VerifyPeerHop(keyOf(lA), &info, &badHop) {
			t.Error("spliced peer hop accepted")
		}
		return
	}
	t.Fatal("no peer path")
}

// shortcutNet builds a three-tier tree: core c1 over middle AS m over
// leaves x and y. The only loop-free x->y route crosses over at m — a
// shortcut (the up+down combination through c1 visits m twice).
func shortcutNet(t testing.TB) (*topology.Topology, *beacon.Registry, addr.IA, addr.IA, addr.IA) {
	t.Helper()
	m := addr.MustParseIA("71-20")
	x := addr.MustParseIA("71-21")
	y := addr.MustParseIA("71-22")
	topo := topology.New()
	if err := topo.AddAS(topology.ASInfo{IA: c1, Core: true}); err != nil {
		t.Fatal(err)
	}
	for _, ia := range []addr.IA{m, x, y} {
		if err := topo.AddAS(topology.ASInfo{IA: ia}); err != nil {
			t.Fatal(err)
		}
	}
	link := func(a, b addr.IA, lat float64) {
		if _, err := topo.AddLink(topology.LinkEnd{IA: a}, topology.LinkEnd{IA: b},
			topology.LinkParent, lat, ""); err != nil {
			t.Fatal(err)
		}
	}
	link(c1, m, 10)
	link(m, x, 4)
	link(m, y, 6)
	r := &beacon.Runner{
		Topo:      topo,
		Keys:      keyOf,
		Timestamp: 1000,
	}
	reg, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return topo, reg, m, x, y
}

// TestShortcutPath checks the non-core crossover: x and y hang off the
// same middle AS, so the combinator must emit the two-hop x->m->y path
// built from truncated up/down segments.
func TestShortcutPath(t *testing.T) {
	topo, reg, m, x, y := shortcutNet(t)
	paths := combineFromRegistry(reg, x, y, topo)
	if len(paths) == 0 {
		t.Fatal("no paths x->y")
	}
	var sc *Path
	for _, p := range paths {
		if p.NumHops() == 2 {
			sc = p
		}
		verifyWalk(t, topo, p)
	}
	if sc == nil {
		t.Fatalf("no 2-hop shortcut among %d paths", len(paths))
	}
	if got := sc.ASes(); len(got) != 3 || got[0] != x || got[1] != m || got[2] != y {
		t.Errorf("shortcut ASes = %v, want [x m y]", got)
	}
	if sc.LatencyMS != 10 {
		t.Errorf("shortcut latency = %v, want 10 (4 + 6)", sc.LatencyMS)
	}
	// Shortcut segments keep the normal fold/advance algebra (no Peer
	// flag): the crossover AS verifies both of its truncated hops.
	for i, inf := range sc.Raw.Infos {
		if inf.Peer {
			t.Errorf("shortcut info %d unexpectedly Peer-flagged", i)
		}
	}
	// No path may visit the middle AS twice (loop freedom).
	for _, p := range paths {
		seen := map[addr.IA]int{}
		for _, ia := range p.ASes() {
			seen[ia]++
			if seen[ia] > 1 {
				t.Errorf("path %s visits %v twice", p.Fingerprint, ia)
			}
		}
	}
}

// TestShortcutReversed reverses a shortcut path and re-walks it.
func TestShortcutReversed(t *testing.T) {
	topo, reg, _, x, y := shortcutNet(t)
	paths := combineFromRegistry(reg, x, y, topo)
	for _, p := range paths {
		if p.NumHops() != 2 {
			continue
		}
		rev, err := p.Reversed()
		if err != nil {
			t.Fatal(err)
		}
		verifyWalk(t, topo, rev)
		return
	}
	t.Fatal("no shortcut to reverse")
}

// TestPeerPathMetadata checks the interface sequence of the peer path:
// exactly one crossing, using the peer interfaces on both sides.
func TestPeerPathMetadata(t *testing.T) {
	topo, reg := testNet(t)
	paths := combineFromRegistry(reg, lA, lB, topo)
	for _, p := range paths {
		if p.NumHops() != 1 {
			continue
		}
		if len(p.Interfaces) != 2 {
			t.Fatalf("interfaces = %v", p.Interfaces)
		}
		if p.Interfaces[0].IA != lA || p.Interfaces[1].IA != lB {
			t.Errorf("interface ASes = %v", p.Interfaces)
		}
		// Both interface IDs must name the actual peer link in the topology.
		l, ok := topo.LinkAt(topology.LinkEnd{IA: lA, IfID: p.Interfaces[0].IfID})
		if !ok {
			t.Fatalf("no link at %v", p.Interfaces[0])
		}
		if l.Type != topology.LinkPeer {
			t.Errorf("crossing link type = %v, want peer", l.Type)
		}
		far, _ := l.Other(lA)
		if far.IA != lB || far.IfID != p.Interfaces[1].IfID {
			t.Errorf("far end = %v, want lB#%d", far, p.Interfaces[1].IfID)
		}
		if p.Expiry.IsZero() {
			t.Error("peer path expiry unset")
		}
		if p.Fingerprint == "" {
			t.Error("peer path fingerprint unset")
		}
		return
	}
	t.Fatal("no peer path")
}

// BenchmarkCombinePeer measures combination when the result includes a
// peering-link crossing (lA->lB in testNet).
func BenchmarkCombinePeer(b *testing.B) {
	_, reg := testNet(b)
	ups := reg.Ups(lA)
	cores := reg.Core.All()
	downs := reg.Down.Get(0, lB)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if paths := Combine(lA, lB, ups, cores, downs); len(paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

// BenchmarkCombineShortcut measures combination with a non-core
// crossover (lX->lY through the shared middle AS).
func BenchmarkCombineShortcut(b *testing.B) {
	_, reg, _, x, y := shortcutNet(b)
	ups := reg.Ups(x)
	cores := reg.Core.All()
	downs := reg.Down.Get(0, y)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if paths := Combine(x, y, ups, cores, downs); len(paths) == 0 {
			b.Fatal("no paths")
		}
	}
}
