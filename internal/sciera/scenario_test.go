package sciera

import (
	"math"
	"testing"

	"sciera/internal/scenario"
	"sciera/internal/topology"
)

// TestScenarioMatchesTables is the golden equivalence check: the
// built-in "sciera" scenario must load to exactly the deployment the Go
// tables describe — same AS set in the same order, same circuits with
// bit-identical latencies, same vantage/heatmap ordering (the canonical
// AllPairs Seq numbering derives from it), same incident calendar, and
// an IP plane producing bit-identical baseline RTTs. This is what
// guarantees the reference campaign's bytes are unchanged by the
// scenario refactor.
func TestScenarioMatchesTables(t *testing.T) {
	s := scenario.MustBuiltin("sciera")

	sites := Sites()
	if len(s.ASes) != len(sites) {
		t.Fatalf("scenario has %d ASes, tables have %d", len(s.ASes), len(sites))
	}
	for i, a := range s.ASes {
		site := sites[i]
		if a.IA != site.IA || a.Name != site.Name || a.Core != site.Core ||
			a.Lat != site.Lat || a.Lon != site.Lon {
			t.Errorf("AS %d: scenario %+v != table %+v", i, a, site)
		}
		if a.Region != site.Region.String() || a.Kind != site.Kind.String() || a.Effort != site.Effort {
			t.Errorf("AS %d metadata: scenario %+v != table %+v", i, a, site)
		}
		joined, ok := a.JoinedTime()
		if !ok || !joined.Equal(site.Joined) {
			t.Errorf("AS %d joined: %v != %v", i, joined, site.Joined)
		}
	}

	want, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	wl, gl := want.Links(), got.Links()
	if len(wl) != len(gl) {
		t.Fatalf("scenario topology has %d links, tables build %d", len(gl), len(wl))
	}
	for i := range wl {
		w, g := wl[i], gl[i]
		if w.Name != g.Name || w.Type != g.Type || w.A.IA != g.A.IA || w.B.IA != g.B.IA {
			t.Errorf("link %d: %v/%q != %v/%q", i, g.A, g.Name, w.A, w.Name)
		}
		if w.LatencyMS != g.LatencyMS { // bit-exact, not approximate
			t.Errorf("link %q latency: scenario %v != table %v", w.Name, g.LatencyMS, w.LatencyMS)
		}
	}

	vant := VantageASes()
	if len(s.Vantage) != len(vant) {
		t.Fatalf("vantage count %d != %d", len(s.Vantage), len(vant))
	}
	for i := range vant {
		if s.Vantage[i] != vant[i] {
			t.Errorf("vantage %d: %s != %s (Seq numbering would shift)", i, s.Vantage[i], vant[i])
		}
	}
	fig8 := Figure8ASes()
	for i := range fig8 {
		if s.Heatmap[i] != fig8[i] {
			t.Errorf("heatmap %d: %s != %s", i, s.Heatmap[i], fig8[i])
		}
	}

	incs := Incidents()
	if len(s.Incidents) != len(incs) {
		t.Fatalf("incident count %d != %d", len(s.Incidents), len(incs))
	}
	for i, inc := range s.Incidents {
		w := incs[i]
		if inc.Name != w.Name || inc.Start() != w.Start || inc.Duration() != w.Duration ||
			inc.FlapPeriod() != w.FlapPeriod || inc.FlapDowntime() != w.FlapDowntime {
			t.Errorf("incident %d: %+v != %+v", i, inc, w)
		}
	}
	nls := MidCampaignLinks()
	if len(s.NewLinks) != len(nls) {
		t.Fatalf("new-link count %d != %d", len(s.NewLinks), len(nls))
	}
	for i, nl := range s.NewLinks {
		w := nls[i]
		if nl.Name != w.Spec.Name || nl.Activate() != w.Activate {
			t.Errorf("new link %d: %+v != %+v", i, nl, w)
		}
		// The runtime-link latency rule: plain geodesic + extra, no
		// detour, no clamp — the formula buildCampaignNetwork used.
		a, _ := SiteByIA(w.Spec.A)
		b, _ := SiteByIA(w.Spec.B)
		exact := topology.GeoLatencyMS(a.Lat, a.Lon, b.Lat, b.Lon) + w.Spec.ExtraMS
		if nl.LatencyMS != exact {
			t.Errorf("new link %q latency %v != %v", nl.Name, nl.LatencyMS, exact)
		}
	}

	wantIP, err := BuildIPPlane()
	if err != nil {
		t.Fatal(err)
	}
	gotIP, err := s.BuildIPPlane()
	if err != nil {
		t.Fatal(err)
	}
	wil, gil := wantIP.Links(), gotIP.Links()
	if len(wil) != len(gil) {
		t.Fatalf("IP plane link count %d != %d", len(gil), len(wil))
	}
	for i := range wil {
		if wil[i].Name != gil[i].Name || wil[i].LatencyMS != gil[i].LatencyMS {
			t.Errorf("IP link %d: %q/%v != %q/%v", i, gil[i].Name, gil[i].LatencyMS, wil[i].Name, wil[i].LatencyMS)
		}
	}
	wantBase, gotBase := IPBaseline(wantIP), s.IPBaseline(gotIP)
	for _, src := range vant {
		for _, dst := range vant {
			if src == dst {
				continue
			}
			w := wantBase.RTTms(src, dst)
			g := gotBase.RTTms(src, dst)
			if w != g && !(math.IsInf(w, 1) && math.IsInf(g, 1)) {
				t.Errorf("IP RTT %s->%s: %v != %v", src, dst, g, w)
			}
		}
	}

	if s.Campaign.Days != CampaignDays || s.Campaign.IntervalMinutes != 5 {
		t.Errorf("campaign parameters drifted: %+v", s.Campaign)
	}
	if len(s.PoPs) != len(PoPs()) {
		t.Errorf("PoP count %d != %d", len(s.PoPs), len(PoPs()))
	}
}

// TestScenarioRoundTrip pins that the builtin survives serialization:
// file-based workflows (scenario-dump, committed scenario files) see
// the identical deployment.
func TestScenarioRoundTrip(t *testing.T) {
	if err := scenario.RoundTrip(scenario.MustBuiltin("sciera")); err != nil {
		t.Fatal(err)
	}
}
