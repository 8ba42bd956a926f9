package topology

import (
	"math"
	"sort"
	"testing"

	"sciera/internal/addr"
)

var (
	core1 = addr.MustParseIA("71-1")
	core2 = addr.MustParseIA("71-2")
	core3 = addr.MustParseIA("71-3")
	leafA = addr.MustParseIA("71-10")
	leafB = addr.MustParseIA("71-11")
	leafC = addr.MustParseIA("71-12")
)

// diamond builds:
//
//	core1 === core2 === core3   (core mesh, c1-c2 also has a second link)
//	  |         |          |
//	leafA     leafB      leafC
//	leafA --- leafB (peer)
func diamond(t *testing.T) *Topology {
	t.Helper()
	topo := New()
	for _, ia := range []addr.IA{core1, core2, core3} {
		if err := topo.AddAS(ASInfo{IA: ia, Core: true}); err != nil {
			t.Fatal(err)
		}
	}
	for _, ia := range []addr.IA{leafA, leafB, leafC} {
		if err := topo.AddAS(ASInfo{IA: ia}); err != nil {
			t.Fatal(err)
		}
	}
	mustLink := func(a, b addr.IA, typ LinkType, lat float64) *Link {
		l, err := topo.AddLink(LinkEnd{IA: a}, LinkEnd{IA: b}, typ, lat, "")
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	mustLink(core1, core2, LinkCore, 10)
	mustLink(core1, core2, LinkCore, 30) // redundant parallel link
	mustLink(core2, core3, LinkCore, 10)
	mustLink(core1, core3, LinkCore, 50)
	mustLink(core1, leafA, LinkParent, 5)
	mustLink(core2, leafB, LinkParent, 5)
	mustLink(core3, leafC, LinkParent, 5)
	mustLink(leafA, leafB, LinkPeer, 3)
	return topo
}

func TestBuildAndValidate(t *testing.T) {
	topo := diamond(t)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(topo.Links()); got != 8 {
		t.Errorf("links = %d", got)
	}
	if got := topo.CoreASes(); len(got) != 3 {
		t.Errorf("cores = %v", got)
	}
	if got := len(topo.ASes()); got != 6 {
		t.Errorf("ases = %d", got)
	}
	a, ok := topo.AS(leafA)
	if !ok || a.Core {
		t.Errorf("AS(leafA) = %+v %v", a, ok)
	}
	if a.MTU != 1472 {
		t.Errorf("default MTU = %d", a.MTU)
	}
}

func TestInterfaceAllocation(t *testing.T) {
	topo := diamond(t)
	// Every link end resolves back to its link.
	for _, l := range topo.Links() {
		for _, end := range []LinkEnd{l.A, l.B} {
			if end.IfID == 0 {
				t.Fatalf("unassigned interface on %v", l)
			}
			got, ok := topo.LinkAt(end)
			if !ok || got.ID != l.ID {
				t.Errorf("LinkAt(%v) = %v, %v", end, got, ok)
			}
		}
	}
	// Explicit interface collision rejected.
	l0 := topo.Links()[0]
	if _, err := topo.AddLink(l0.A, LinkEnd{IA: core3, IfID: 999}, LinkCore, 1, ""); err == nil {
		t.Error("interface reuse accepted")
	}
}

func TestAddLinkValidation(t *testing.T) {
	topo := New()
	if err := topo.AddAS(ASInfo{IA: core1, Core: true}); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddAS(ASInfo{IA: leafA}); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddAS(ASInfo{IA: core1, Core: true}); err == nil {
		t.Error("duplicate AS accepted")
	}
	if _, err := topo.AddLink(LinkEnd{IA: core1}, LinkEnd{IA: core1}, LinkCore, 1, ""); err == nil {
		t.Error("self-link accepted")
	}
	if _, err := topo.AddLink(LinkEnd{IA: core1}, LinkEnd{IA: leafA}, LinkCore, 1, ""); err == nil {
		t.Error("core link to non-core accepted")
	}
	if _, err := topo.AddLink(LinkEnd{IA: core1}, LinkEnd{IA: leafB}, LinkParent, 1, ""); err == nil {
		t.Error("link to unknown AS accepted")
	}
}

func TestValidateCatchesOrphans(t *testing.T) {
	topo := New()
	_ = topo.AddAS(ASInfo{IA: core1, Core: true})
	_ = topo.AddAS(ASInfo{IA: leafA})
	// leafA has no parent chain to a core.
	if err := topo.Validate(); err == nil {
		t.Error("orphan AS not detected")
	}
}

func TestValidateCatchesParentCycle(t *testing.T) {
	topo := New()
	_ = topo.AddAS(ASInfo{IA: core1, Core: true})
	_ = topo.AddAS(ASInfo{IA: leafA})
	_ = topo.AddAS(ASInfo{IA: leafB})
	_, _ = topo.AddLink(LinkEnd{IA: core1}, LinkEnd{IA: leafA}, LinkParent, 1, "")
	_, _ = topo.AddLink(LinkEnd{IA: leafA}, LinkEnd{IA: leafB}, LinkParent, 1, "")
	_, _ = topo.AddLink(LinkEnd{IA: leafB}, LinkEnd{IA: leafA}, LinkParent, 1, "")
	if err := topo.Validate(); err == nil {
		t.Error("parent cycle not detected")
	}
}

func TestFamilyQueries(t *testing.T) {
	topo := diamond(t)
	if ch := topo.Children(core1); len(ch) != 1 || ch[0].B.IA != leafA {
		t.Errorf("Children(core1) = %v", ch)
	}
	if ps := topo.Parents(leafB); len(ps) != 1 || ps[0].A.IA != core2 {
		t.Errorf("Parents(leafB) = %v", ps)
	}
	if ps := topo.Parents(core1); len(ps) != 0 {
		t.Errorf("Parents(core1) = %v", ps)
	}
}

func TestShortestRouteLatency(t *testing.T) {
	topo := diamond(t)
	r := topo.ShortestRoute(leafA, leafC, LatencyWeight)
	if r == nil {
		t.Fatal("no route")
	}
	// leafA -peer-> leafB -> core2 -> core3 -> leafC = 3+5+10+5 = 23,
	// cheaper than going up through core1 (5+10+10+5 = 30).
	if r.LatencyMS != 23 || r.Hops != 4 {
		t.Errorf("route latency=%v hops=%d", r.LatencyMS, r.Hops)
	}
	if rtt := r.RTT(0.1); math.Abs(rtt-2*23.4) > 1e-9 {
		t.Errorf("RTT = %v", rtt)
	}
}

func TestBGPWeightPrefersFewerHops(t *testing.T) {
	topo := diamond(t)
	// Latency-wise, core1->core3 via core2 is 20ms; the direct link is
	// 50ms. BGP-style routing picks the direct link (1 hop < 2 hops).
	bgp := topo.ShortestRoute(core1, core3, BGPWeight)
	if bgp.Hops != 1 || bgp.LatencyMS != 50 {
		t.Errorf("BGP route hops=%d lat=%v", bgp.Hops, bgp.LatencyMS)
	}
	lat := topo.ShortestRoute(core1, core3, LatencyWeight)
	if lat.Hops != 2 || lat.LatencyMS != 20 {
		t.Errorf("latency route hops=%d lat=%v", lat.Hops, lat.LatencyMS)
	}
}

func TestRouteSelf(t *testing.T) {
	topo := diamond(t)
	r := topo.ShortestRoute(leafA, leafA, LatencyWeight)
	if r == nil || r.Hops != 0 || r.LatencyMS != 0 {
		t.Errorf("self route = %+v", r)
	}
}

func TestLinkFailureReroutes(t *testing.T) {
	topo := diamond(t)
	direct := topo.ShortestRoute(core1, core2, LatencyWeight)
	if direct.LatencyMS != 10 {
		t.Fatalf("direct = %v", direct.LatencyMS)
	}
	// Fail the 10ms link: the detour down through the leaves
	// (core1->leafA->leafB->core2 = 5+3+5) beats the parallel 30ms link.
	if err := topo.SetLinkUp(direct.Links[0].ID, false); err != nil {
		t.Fatal(err)
	}
	alt := topo.ShortestRoute(core1, core2, LatencyWeight)
	if alt == nil || alt.LatencyMS != 13 || alt.Hops != 3 {
		t.Fatalf("alt = %+v", alt)
	}
	if topo.LinkUp(direct.Links[0].ID) {
		t.Error("link still up")
	}
	// Restore.
	if err := topo.SetLinkUp(direct.Links[0].ID, true); err != nil {
		t.Fatal(err)
	}
	if got := topo.ShortestRoute(core1, core2, LatencyWeight).LatencyMS; got != 10 {
		t.Errorf("after restore = %v", got)
	}
	if err := topo.SetLinkUp(9999, false); err == nil {
		t.Error("bad link id accepted")
	}
}

func TestConnected(t *testing.T) {
	topo := diamond(t)
	if !topo.Connected(leafA, leafC) {
		t.Error("leafA-leafC should be connected")
	}
	// Cut leafC's only link.
	for _, l := range topo.LinksOf(leafC) {
		_ = topo.SetLinkUp(l.ID, false)
	}
	if topo.Connected(leafA, leafC) {
		t.Error("leafC should be isolated")
	}
	if topo.Connected(leafA, leafB) != true {
		t.Error("unrelated pair affected")
	}
}

func TestUpLinksOf(t *testing.T) {
	topo := diamond(t)
	all := topo.LinksOf(core1)
	_ = topo.SetLinkUp(all[0].ID, false)
	up := topo.UpLinksOf(core1)
	if len(up) != len(all)-1 {
		t.Errorf("up links = %d, want %d", len(up), len(all)-1)
	}
}

func TestLinkEndHelpers(t *testing.T) {
	topo := diamond(t)
	l := topo.Links()[0]
	if o, ok := l.Other(core1); !ok || o.IA != core2 {
		t.Errorf("Other = %v %v", o, ok)
	}
	if _, ok := l.Other(leafC); ok {
		t.Error("Other for non-member should fail")
	}
	if loc, ok := l.Local(core2); !ok || loc.IA != core2 {
		t.Errorf("Local = %v %v", loc, ok)
	}
	if l.A.String() == "" || LinkCore.String() != "core" || LinkType(9).String() == "" {
		t.Error("string helpers broken")
	}
}

func TestGeoLatency(t *testing.T) {
	// Zurich (47.37, 8.54) to Singapore (1.35, 103.82) is ~10,300 km.
	d := GreatCircleKM(47.37, 8.54, 1.35, 103.82)
	if d < 10000 || d > 10700 {
		t.Errorf("ZRH-SIN distance = %v km", d)
	}
	lat := GeoLatencyMS(47.37, 8.54, 1.35, 103.82)
	// One-way fibre latency should land in a plausible 60-90 ms window.
	if lat < 60 || lat > 90 {
		t.Errorf("ZRH-SIN latency = %v ms", lat)
	}
	if GreatCircleKM(1, 2, 1, 2) != 0 {
		t.Error("zero distance expected")
	}
}

func BenchmarkShortestRoute(b *testing.B) {
	topo := New()
	// A 10x10 grid of ASes.
	ias := make([]addr.IA, 100)
	for i := range ias {
		ias[i] = addr.MustIA(71, addr.AS(1000+i))
		_ = topo.AddAS(ASInfo{IA: ias[i], Core: true})
	}
	for r := 0; r < 10; r++ {
		for c := 0; c < 10; c++ {
			if c+1 < 10 {
				_, _ = topo.AddLink(LinkEnd{IA: ias[r*10+c]}, LinkEnd{IA: ias[r*10+c+1]}, LinkCore, 1, "")
			}
			if r+1 < 10 {
				_, _ = topo.AddLink(LinkEnd{IA: ias[r*10+c]}, LinkEnd{IA: ias[(r+1)*10+c]}, LinkCore, 1, "")
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if topo.ShortestRoute(ias[0], ias[99], LatencyWeight) == nil {
			b.Fatal("no route")
		}
	}
}

// TestBGPBaselineFollowsLinkState: the memoised baseline must answer
// what a fresh Dijkstra answers after every kind of link-state change,
// including the ones that cut a site off (+Inf) and AddLink.
func TestBGPBaselineFollowsLinkState(t *testing.T) {
	topo := diamond(t)
	base := NewBGPBaseline(topo, 0.15)
	ases := []addr.IA{core1, core2, core3, leafA, leafB, leafC}
	check := func(when string) {
		t.Helper()
		for pass := 0; pass < 2; pass++ { // second pass is answered from the memo
			for _, a := range ases {
				for _, b := range ases {
					want := topo.ShortestRoute(a, b, BGPWeight).RTT(0.15)
					if got := base.RTTms(a, b); got != want {
						t.Errorf("%s, pass %d: RTTms(%v, %v) = %v, fresh route %v", when, pass, a, b, got, want)
					}
				}
			}
		}
	}
	check("initial")
	gen := topo.LinkGeneration()
	var leafCUplink int
	for _, l := range topo.LinksOf(leafC) {
		leafCUplink = l.ID
	}
	if err := topo.SetLinkUp(leafCUplink, true); err != nil {
		t.Fatal(err)
	}
	if topo.LinkGeneration() != gen {
		t.Error("SetLinkUp that changed nothing bumped the link generation")
	}
	if err := topo.SetLinkUp(leafCUplink, false); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(base.RTTms(leafA, leafC), 1) {
		t.Error("cut-off site still reachable in the baseline")
	}
	check("leafC cut off")
	if _, err := topo.AddLink(LinkEnd{IA: leafB}, LinkEnd{IA: leafC}, LinkPeer, 1, ""); err != nil {
		t.Fatal(err)
	}
	check("after AddLink")
	if err := topo.SetLinkUp(leafCUplink, true); err != nil {
		t.Fatal(err)
	}
	check("restored")
}

// Topology readers only these tests call, kept as methods.

// CoreASes returns the core ASes sorted by IA.
func (t *Topology) CoreASes() []addr.IA {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []addr.IA
	for ia, a := range t.ases {
		if a.Core {
			out = append(out, ia)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// UpLinksOf returns the currently-up links of an AS.
func (t *Topology) UpLinksOf(ia addr.IA) []*Link {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []*Link
	for _, l := range t.byIA[ia] {
		if l.up.Load() {
			out = append(out, l)
		}
	}
	return out
}

// Children returns the parent->child links where ia is the parent.
func (t *Topology) Children(ia addr.IA) []*Link {
	var out []*Link
	for _, l := range t.LinksOf(ia) {
		if l.Type == LinkParent && l.A.IA == ia {
			out = append(out, l)
		}
	}
	return out
}

// Connected reports whether every AS pair can reach each other over
// currently-up links (used by the Figure 10c failure sweep).
func (t *Topology) Connected(src, dst addr.IA) bool {
	return t.ShortestRoute(src, dst, func(*Link) float64 { return 1 }) != nil
}
