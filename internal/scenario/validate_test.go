package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"sciera/internal/addr"
)

// planeOf gives the tiny scenario a one-hub IP plane to mutate.
func planeOf(s *Scenario) *IPPlane {
	s.IPPlane = &IPPlane{Hubs: []IPHub{{Name: "hub", IA: addr.MustParseIA("1-1"), Lat: 50.11, Lon: 8.68}}}
	return s.IPPlane
}

// trafficOf gives the tiny scenario a one-pair traffic section to mutate.
func trafficOf(s *Scenario) *Traffic {
	s.Traffic = &Traffic{
		Pairs:              []TrafficPair{{Src: s.ASes[0].IA, Dst: s.ASes[3].IA}},
		EndpointsPerSource: 16, ArrivalRatePerPair: 10, FlowPackets: 4,
		PayloadBytes: 200, PacketIntervalMS: 100, Burst: 4, HorizonMS: 100,
	}
	return s.Traffic
}

// hostileKnobs is one mutation of the tiny scenario per rule Validate
// holds numeric knobs to. Before the rules existed each of these loaded:
// a negative interval ran the campaign at multiping's one-minute
// fallback, negative quick days printed empty figures and exited 0.
var hostileKnobs = []struct {
	name, want string
	mutate     func(*Scenario)
}{
	{"negative interval", "interval_minutes", func(s *Scenario) { s.Campaign.IntervalMinutes = -5 }},
	{"negative quick interval", "quick_interval_minutes", func(s *Scenario) { s.Campaign.QuickIntervalMinutes = -10 }},
	{"negative quick days", "quick_days", func(s *Scenario) { s.Campaign.QuickDays = -1 }},
	{"negative best per origin", "best_per_origin", func(s *Scenario) { s.Campaign.BestPerOrigin = -1 }},
	{"negative link detour", "negative detour", func(s *Scenario) { s.Links[0].Detour = -1.25 }},
	{"negative link bandwidth", "bandwidth_mbps", func(s *Scenario) { s.Links[1].BandwidthMbps = -100 }},
	{"negative access detour", "access_detour", func(s *Scenario) { planeOf(s).AccessDetour = -1.03 }},
	{"negative access extra", "access_extra_ms", func(s *Scenario) { planeOf(s).AccessExtraMS = -0.3 }},
	{"negative per-hop cost", "per_hop_ms", func(s *Scenario) { planeOf(s).PerHopMS = -0.15 }},
	{"negative traffic burst", "burst", func(s *Scenario) { trafficOf(s).Burst = -3 }},
	{"negative intra-AS delay", "intra_as_delay_us", func(s *Scenario) { trafficOf(s).IntraASDelayUS = -5 }},
	{"latitude off the globe", "latitude", func(s *Scenario) { s.ASes[2].Lat = 90.5 }},
	{"longitude off the globe", "longitude", func(s *Scenario) { s.ASes[3].Lon = -180.5 }},
	{"hub latitude off the globe", "latitude", func(s *Scenario) { planeOf(s).Hubs[0].Lat = -91 }},
	{"hub longitude off the globe", "longitude", func(s *Scenario) { planeOf(s).Hubs[0].Lon = 181 }},
	// Derived values no dump can carry: twice the interval and a
	// geodesic times the detour both overflow to +Inf.
	{"interval overflows when doubled", "quick_interval_minutes", func(s *Scenario) { s.Campaign.IntervalMinutes = 1e308 }},
	{"detour overflows the latency", "not positive and finite", func(s *Scenario) { s.Links[0].Detour = 1e308 }},
	// Not a knob but the same kind of gap: every AS still hangs off a
	// core, so this loaded, and only the built topology refused it.
	{"parent cycle below the cores", "parent cycle through lf (5-4) and tr (5-3)", func(s *Scenario) {
		s.Links = append(s.Links, Link{Name: "lf-tr", A: s.ASes[3].IA, B: s.ASes[2].IA, Type: LinkParent})
	}},
	{"parent cycle closed by a new link", "parent cycle", func(s *Scenario) {
		s.NewLinks = append(s.NewLinks, NewLink{Link: Link{Name: "lf-tr", A: s.ASes[3].IA, B: s.ASes[2].IA, Type: LinkParent}, ActivateHours: 1})
	}},
}

func TestValidateRejectsHostileKnobs(t *testing.T) {
	for _, row := range hostileKnobs {
		t.Run(row.name, func(t *testing.T) { mutate(t, row.want, row.mutate) })
	}
	// The unmutated plane and traffic are fine: the rows above fail on
	// their knob.
	s := tiny()
	planeOf(s)
	trafficOf(s)
	if err := Finish(s); err != nil {
		t.Fatalf("tiny scenario with an IP plane and traffic invalid: %v", err)
	}
}

// FuzzLoadScenario holds the one door every scenario comes through to
// hostile bytes: Load never panics; whatever it accepts dumps, reloads
// and dumps again to the same bytes; what Validate accepts, Build
// builds; and the IP-plane builder returns (an error is an answer, a
// panic is not).
func FuzzLoadScenario(f *testing.F) {
	committed, err := os.ReadFile("../../scenarios/sciera.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committed)
	gen, err := Generate(GenSpec{Seed: 3, ISDs: 1, ASes: 10, CoresPerISD: 2})
	if err != nil {
		f.Fatal(err)
	}
	small, err := gen.Canonical()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(small)
	for _, row := range hostileKnobs {
		s := tiny()
		row.mutate(s)
		buf, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := RoundTrip(s); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Build(); err != nil {
			t.Fatalf("Validate accepted a scenario Build refuses: %v", err)
		}
		if s.IPPlane != nil {
			_, _ = s.BuildIPPlane()
		}
	})
}
