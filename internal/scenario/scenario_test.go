package scenario

import (
	"bytes"
	"strings"
	"testing"

	"sciera/internal/addr"
)

// tiny returns a minimal valid scenario for mutation tests: two cores,
// one transit, one leaf, in one ISD.
func tiny() *Scenario {
	c1 := addr.MustParseIA("5-1")
	c2 := addr.MustParseIA("5-2")
	tr := addr.MustParseIA("5-3")
	lf := addr.MustParseIA("5-4")
	return &Scenario{
		Version: Version,
		Name:    "tiny",
		ASes: []AS{
			{Name: "c1", IA: c1, Core: true, Lat: 47.38, Lon: 8.54},
			{Name: "c2", IA: c2, Core: true, Lat: 52.37, Lon: 4.90},
			{Name: "tr", IA: tr, Lat: 48.86, Lon: 2.35},
			{Name: "lf", IA: lf, Lat: 46.95, Lon: 7.45},
		},
		Links: []Link{
			{Name: "c1-c2", A: c1, B: c2, Type: LinkCore},
			{Name: "c1-tr", A: c1, B: tr, Type: LinkParent},
			{Name: "tr-lf", A: tr, B: lf, Type: LinkParent},
		},
		Vantage:  []addr.IA{c1, lf},
		Campaign: Campaign{Days: 2, IntervalMinutes: 5},
	}
}

func TestTinyValid(t *testing.T) {
	s := tiny()
	if err := Finish(s); err != nil {
		t.Fatalf("tiny scenario invalid: %v", err)
	}
	// Normalization resolved every latency.
	for _, l := range s.Links {
		if l.LatencyMS <= 0 {
			t.Errorf("link %q latency not resolved: %g", l.Name, l.LatencyMS)
		}
	}
	if err := RoundTrip(s); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	topo, err := s.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if got := len(topo.ASes()); got != 4 {
		t.Errorf("built topology has %d ASes, want 4", got)
	}
}

// mutate applies f to a fresh tiny scenario and asserts Finish rejects
// it with an error mentioning want.
func mutate(t *testing.T, want string, f func(*Scenario)) {
	t.Helper()
	s := tiny()
	f(s)
	err := Finish(s)
	if err == nil {
		t.Fatalf("scenario accepted, want error containing %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func TestValidateRejects(t *testing.T) {
	lf := addr.MustParseIA("5-4")
	island := addr.MustParseIA("5-99")

	t.Run("disconnected graph", func(t *testing.T) {
		mutate(t, "disconnected", func(s *Scenario) {
			s.ASes = append(s.ASes, AS{Name: "island", IA: island, Lat: 1, Lon: 1})
		})
	})
	t.Run("duplicate link name", func(t *testing.T) {
		mutate(t, "duplicate link name", func(s *Scenario) {
			s.Links = append(s.Links, Link{Name: "c1-c2", A: s.ASes[0].IA, B: s.ASes[1].IA, Type: LinkCore})
		})
	})
	t.Run("incident targets unknown link", func(t *testing.T) {
		mutate(t, "unknown link", func(s *Scenario) {
			s.Incidents = append(s.Incidents, Incident{Name: "ghost", Links: []string{"no-such"}, StartHours: 1, DurationHours: 1})
		})
	})
	t.Run("duplicate IA", func(t *testing.T) {
		mutate(t, "duplicate AS", func(s *Scenario) {
			s.ASes = append(s.ASes, AS{Name: "dup", IA: lf, Lat: 1, Lon: 1})
		})
	})
	t.Run("core link to non-core", func(t *testing.T) {
		mutate(t, "core link", func(s *Scenario) {
			s.Links = append(s.Links, Link{Name: "bad-core", A: s.ASes[0].IA, B: lf, Type: LinkCore})
		})
	})
	t.Run("no parent chain to core", func(t *testing.T) {
		mutate(t, "no parent chain", func(s *Scenario) {
			// Peer link keeps the graph connected but beacons can't
			// descend over it.
			s.Links[2].Type = LinkPeer
		})
	})
	t.Run("unknown link endpoint", func(t *testing.T) {
		mutate(t, "unknown AS", func(s *Scenario) {
			s.Links = append(s.Links, Link{Name: "dangling", A: s.ASes[0].IA, B: island, Type: LinkParent})
		})
	})
	t.Run("vantage not in scenario", func(t *testing.T) {
		mutate(t, "not in scenario", func(s *Scenario) {
			s.Vantage = append(s.Vantage, island)
		})
	})
	t.Run("flap downtime exceeds period", func(t *testing.T) {
		mutate(t, "flap downtime", func(s *Scenario) {
			s.Incidents = append(s.Incidents, Incident{
				Name: "bad-flap", Links: []string{"c1-c2"},
				StartHours: 1, DurationHours: 2,
				FlapPeriodHours: 0.5, FlapDowntimeHours: 0.5,
			})
		})
	})
	t.Run("isd without core", func(t *testing.T) {
		mutate(t, "no core AS", func(s *Scenario) {
			other := addr.MustParseIA("9-1")
			s.ASes = append(s.ASes, AS{Name: "lost", IA: other, Lat: 1, Lon: 1})
			s.Links = append(s.Links, Link{Name: "to-lost", A: s.ASes[2].IA, B: other, Type: LinkParent})
		})
	})
	t.Run("bad version", func(t *testing.T) {
		mutate(t, "unsupported version", func(s *Scenario) { s.Version = 99 })
	})
	t.Run("self loop", func(t *testing.T) {
		mutate(t, "self-loop", func(s *Scenario) {
			s.Links = append(s.Links, Link{Name: "loop", A: s.ASes[0].IA, B: s.ASes[0].IA, Type: LinkCore})
		})
	})
	t.Run("single vantage", func(t *testing.T) {
		mutate(t, "vantage", func(s *Scenario) { s.Vantage = s.Vantage[:1] })
	})
}

func TestLoadRejectsUnknownField(t *testing.T) {
	_, err := Load(strings.NewReader(`{"version":1,"name":"x","typo_field":true}`))
	if err == nil || !strings.Contains(err.Error(), "typo_field") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	_, err := Load(strings.NewReader(`{not json`))
	if err == nil {
		t.Fatal("garbage input accepted")
	}
}

func TestBuiltinRegistry(t *testing.T) {
	names := BuiltinNames()
	if len(names) != 2 || names[0] != "loadbench" || names[1] != "sciera" {
		t.Fatalf("builtins = %v, want [loadbench sciera]", names)
	}
	s := MustBuiltin("loadbench")
	if s.Traffic == nil || s.Traffic.EndpointsPerSource != 1<<20 {
		t.Fatalf("loadbench traffic defaults wrong: %+v", s.Traffic)
	}
	// Every lookup hands out a fresh document, down to nested fields:
	// bench sets Campaign on the one it resolves, so a cache must not
	// share a document between calls.
	for _, name := range names {
		s := MustBuiltin(name)
		want, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		s.Name = "mutated"
		s.Campaign.IntervalMinutes *= 3
		s.Links[0].LatencyMS += 7
		got, err := MustBuiltin(name).Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("builtin %q shared between lookups", name)
		}
	}
}

func TestResolveErrors(t *testing.T) {
	if _, err := Resolve("no-such-scenario"); err == nil {
		t.Fatal("unknown scenario name accepted")
	}
	if _, err := Resolve("gen:bogus=1"); err == nil {
		t.Fatal("unknown gen key accepted")
	}
	if _, err := Resolve("gen:ases"); err == nil {
		t.Fatal("malformed gen kv accepted")
	}
}

func TestQuickDefaults(t *testing.T) {
	s := tiny()
	if err := Finish(s); err != nil {
		t.Fatal(err)
	}
	if s.Campaign.QuickDays != 2 {
		t.Errorf("quick days = %d, want campaign-capped 2", s.Campaign.QuickDays)
	}
	if s.Campaign.QuickIntervalMinutes != 10 {
		t.Errorf("quick interval = %g, want doubled 10", s.Campaign.QuickIntervalMinutes)
	}
	if len(s.Campaign.QuickVantage) != 2 || len(s.Heatmap) != 2 {
		t.Errorf("quick vantage/heatmap defaults wrong: %v / %v", s.Campaign.QuickVantage, s.Heatmap)
	}
	if s.Campaign.BestPerOrigin != 16 {
		t.Errorf("best-per-origin default = %d, want 16", s.Campaign.BestPerOrigin)
	}
}
