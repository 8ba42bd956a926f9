package sciera

import (
	"math"
	"sync"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/core"
	"sciera/internal/scenario"
	"sciera/internal/simnet"
	"sciera/internal/topology"
)

// deployment is the builtin as every consumer reaches it.
func deployment() *scenario.Scenario { return scenario.MustBuiltin("sciera") }

func TestSitesConsistent(t *testing.T) {
	d := deployment()
	seen := make(map[addr.IA]bool)
	cores := 0
	for _, s := range d.ASes {
		if seen[s.IA] {
			t.Errorf("duplicate IA %v", s.IA)
		}
		seen[s.IA] = true
		if s.Name == "" || (s.Lat == 0 && s.Lon == 0) {
			t.Errorf("site %v incomplete: %+v", s.IA, s)
		}
		switch s.Region {
		case eu, na, asia, sa, af:
		default:
			t.Errorf("site %s has unknown region %q", s.Name, s.Region)
		}
		switch s.Kind {
		case coreBackbone, nrenAttach, leafVLAN, leafNewVLAN:
		default:
			t.Errorf("site %s has unknown deployment kind %q", s.Name, s.Kind)
		}
		if s.Core {
			cores++
		}
	}
	// Cores: GEANT, BRIDGES, six KREONET ring ASes, SWITCH(ISD64).
	if cores != 9 {
		t.Errorf("cores = %d, want 9", cores)
	}
	// All measurement vantage ASes are sites.
	for _, ia := range VantageASes() {
		if !seen[ia] {
			t.Errorf("vantage %v not a site", ia)
		}
	}
	if len(VantageASes()) != 11 {
		t.Errorf("vantage count = %d, want 11 (Section 5.4)", len(VantageASes()))
	}
	if len(Figure8ASes()) != 9 {
		t.Errorf("figure 8 ASes = %d, want 9", len(Figure8ASes()))
	}
	if _, ok := d.ASByIA(ia("71-20965")); !ok {
		t.Error("GEANT missing")
	}
	if _, ok := d.ASByIA(ia("99-1")); ok {
		t.Error("phantom site found")
	}
}

func TestBuildTopology(t *testing.T) {
	d := deployment()
	topo, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.ASes()); got != len(d.ASes) {
		t.Errorf("ASes = %d, want %d", got, len(d.ASes))
	}
	// The four Singapore-Amsterdam circuits are parallel links.
	sgams := 0
	for _, l := range topo.Links() {
		pair := [2]addr.IA{l.A.IA, l.B.IA}
		if pair == [2]addr.IA{ia("71-2:0:3d"), ia("71-2:0:3e")} ||
			pair == [2]addr.IA{ia("71-2:0:3e"), ia("71-2:0:3d")} {
			sgams++
		}
		if l.LatencyMS <= 0 {
			t.Errorf("link %q has no latency", l.Name)
		}
	}
	if sgams != 4 {
		t.Errorf("SG-AMS circuits = %d, want 4", sgams)
	}
	// Every incident references a real link.
	for _, inc := range d.Incidents {
		for _, name := range inc.Links {
			if _, ok := topo.LinkIDByName(name); !ok {
				t.Errorf("incident %q references unknown link %q", inc.Name, name)
			}
		}
	}
	// Transpacific latency sanity: Daejeon-Seattle is ~8000 km, so the
	// circuit should be 50-90 ms one way.
	id, ok := topo.LinkIDByName("KREONET STL-DJ")
	if !ok {
		t.Fatal("STL-DJ link missing")
	}
	for _, l := range topo.Links() {
		if l.ID == id && (l.LatencyMS < 40 || l.LatencyMS > 100) {
			t.Errorf("STL-DJ latency = %v ms", l.LatencyMS)
		}
	}
}

func TestDeploymentPathDiversity(t *testing.T) {
	topo, err := deployment().Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n, err := core.Build(topo, sim, core.Options{Seed: 42, BestPerOrigin: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Every Figure 8 pair has at least 2 paths (the figure's minimum).
	fig8 := Figure8ASes()
	minPaths, maxPaths := 1<<30, 0
	for _, src := range fig8 {
		for _, dst := range fig8 {
			if src == dst {
				continue
			}
			paths := n.Paths(src, dst)
			if len(paths) < 2 {
				t.Errorf("%v -> %v: %d paths, want >= 2", src, dst, len(paths))
			}
			if len(paths) < minPaths {
				minPaths = len(paths)
			}
			if len(paths) > maxPaths {
				maxPaths = len(paths)
			}
		}
	}
	// All vantage pairs are at least connected.
	for _, src := range VantageASes() {
		for _, dst := range VantageASes() {
			if src != dst && len(n.Paths(src, dst)) == 0 {
				t.Errorf("%v -> %v unreachable", src, dst)
			}
		}
	}
	// Some pair exhibits two-digit diversity (the paper reports up to
	// 113 for UVa-UFMS).
	if maxPaths < 20 {
		t.Errorf("max paths = %d, want >= 20", maxPaths)
	}
	t.Logf("path diversity across vantage pairs: min=%d max=%d", minPaths, maxPaths)

	// The Daejeon-Singapore pair has paths both via the direct circuit
	// and around the globe.
	dj, sg := ia("71-2:0:3b"), ia("71-2:0:3d")
	paths := n.Paths(dj, sg)
	direct, long := false, false
	for _, p := range paths {
		if p.LatencyMS < 60 {
			direct = true
		}
		if p.LatencyMS > 150 {
			long = true
		}
	}
	if !direct || !long {
		t.Errorf("DJ-SG path mix: direct=%v around-the-globe=%v (%d paths)", direct, long, len(paths))
	}
}

func TestIPPlane(t *testing.T) {
	d := deployment()
	ipTopo, err := d.BuildIPPlane()
	if err != nil {
		t.Fatal(err)
	}
	base := d.IPBaseline(ipTopo)
	// Every site pair is reachable with a plausible RTT.
	sites := VantageASes()
	for _, a := range sites {
		for _, b := range sites {
			if a == b {
				continue
			}
			rtt := base.RTTms(a, b)
			if math.IsInf(rtt, 1) {
				t.Errorf("%v -> %v unreachable on IP plane", a, b)
				continue
			}
			// Worst case: Singapore <-> Campo Grande over the sparse
			// transit backbone is just above 500 ms.
			if rtt < 1 || rtt > 550 {
				t.Errorf("%v -> %v IP RTT = %v ms", a, b, rtt)
			}
		}
	}
	// Geographically close pairs are fast: GEANT (Frankfurt) to SIDN
	// (Arnhem) should be well under 30ms RTT.
	if rtt := base.RTTms(ia("71-20965"), ia("71-1140")); rtt > 30 {
		t.Errorf("GEANT-SIDN IP RTT = %v ms", rtt)
	}
	// Antipodal pairs are slow: Daejeon to UFMS well over 150ms.
	if rtt := base.RTTms(ia("71-2:0:3b"), ia("71-2:0:5c")); rtt < 150 {
		t.Errorf("DJ-UFMS IP RTT = %v ms", rtt)
	}
}

// TestIPBaselineMatchesFreshRoutes holds the memoised baseline against
// the code it replaced — a fresh BGP-weighted Dijkstra per question —
// for every ordered site pair before, during and after a flap of each
// transit trunk on the IP plane, asked from two goroutines at once as
// the shard workers of a campaign do.
func TestIPBaselineMatchesFreshRoutes(t *testing.T) {
	d := deployment()
	ipTopo, err := d.BuildIPPlane()
	if err != nil {
		t.Fatal(err)
	}
	base := d.IPBaseline(ipTopo)
	sites := VantageASes()
	check := func(when string) {
		t.Helper()
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, a := range sites {
					for _, b := range sites {
						want := ipTopo.ShortestRoute(a, b, topology.BGPWeight).RTT(d.IPPlane.PerHopMS)
						if got := base.RTTms(a, b); got != want {
							t.Errorf("%s: IP RTT %v -> %v = %v, fresh route %v", when, a, b, got, want)
						}
					}
				}
			}()
		}
		wg.Wait()
	}
	check("before")
	for _, l := range ipTopo.Links() {
		if l.Type != topology.LinkCore {
			continue
		}
		if err := ipTopo.SetLinkUp(l.ID, false); err != nil {
			t.Fatal(err)
		}
		check(l.Name + " down")
		if err := ipTopo.SetLinkUp(l.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	check("after")
}

func TestPoPsTable(t *testing.T) {
	pops := deployment().PoPs
	if len(pops) != 16 {
		t.Errorf("PoPs = %d, want 16 (Table 1)", len(pops))
	}
	for _, p := range pops {
		if p.Location == "" || len(p.PeeringNRENs) == 0 {
			t.Errorf("PoP incomplete: %+v", p)
		}
	}
}

func TestTimelineOrdered(t *testing.T) {
	var first, last time.Time
	for _, s := range deployment().ASes {
		joined, ok := s.JoinedTime()
		if !ok {
			continue
		}
		if first.IsZero() || joined.Before(first) {
			first = joined
		}
		if joined.After(last) {
			last = joined
		}
		if s.Effort <= 0 || s.Effort > 10 {
			t.Errorf("%s effort = %v", s.Name, s.Effort)
		}
	}
	if first.Year() != 2022 || last.Year() != 2025 {
		t.Errorf("timeline spans %v - %v, want 2022 - 2025 (Figure 3)", first, last)
	}
}

func TestMidCampaignLinks(t *testing.T) {
	d := deployment()
	for _, nl := range d.NewLinks {
		if _, ok := d.ASByIA(nl.A); !ok {
			t.Errorf("new link %q references unknown AS", nl.Name)
		}
		if nl.Activate() <= 0 {
			t.Errorf("new link %q has no activation time", nl.Name)
		}
	}
}
