package sciera

import (
	"sciera/internal/addr"
	"sciera/internal/scenario"
	"sciera/internal/topology"
)

// This file re-expresses the hard-coded deployment tables as the
// built-in "sciera" reference scenario. The Go tables in ases.go,
// topology.go, pops.go and ipplane.go remain the single source of
// truth; Scenario() is a pure projection of them into the scenario
// schema, registered at init time so every scenario consumer (the
// experiment suite, cmd/experiments -scenario sciera, -scenario-dump)
// reaches the deployment by name. The projection is latency-exact: the
// scenario loader resolves geodesic latencies with the same expressions
// Build uses, so the reference campaign's bytes do not change
// (TestScenarioMatchesTables pins this).

func init() {
	scenario.Register("sciera", Scenario)
}

// linkTypeName maps a topology link type to its scenario string.
func linkTypeName(t topology.LinkType) string {
	switch t {
	case topology.LinkCore:
		return scenario.LinkCore
	case topology.LinkParent:
		return scenario.LinkParent
	default:
		return scenario.LinkPeer
	}
}

// Scenario projects the deployment tables into a scenario document.
func Scenario() (*scenario.Scenario, error) {
	// Transit ASes are the non-core ASes that parent other ASes (RNP,
	// both SWITCH deployments); everything else non-core is a leaf.
	hasChildren := map[addr.IA]bool{}
	for _, l := range Links() {
		if l.Type == topology.LinkParent {
			hasChildren[l.A] = true
		}
	}

	s := &scenario.Scenario{
		Version: scenario.Version,
		Name:    "sciera",
		Description: "The SCIERA deployment: Figure 1 topology (ISD 71 plus the " +
			"ISD 64 ASes reached via SWITCH), Table 1 PoPs, the Figure 3 " +
			"deployment timeline, the Section 5.4 incident calendar, and the " +
			"commercial-Internet baseline plane.",
		Campaign: scenario.Campaign{
			Days:                 CampaignDays,
			IntervalMinutes:      5,
			QuickDays:            2,
			QuickIntervalMinutes: 10,
			// The region-spanning quick subset: GEANT (EU), SIDN (EU),
			// KISTI DJ and SG (Asia), UVa (NA), UFMS (SA).
			QuickVantage: []addr.IA{
				ia("71-20965"), ia("71-1140"), ia("71-2:0:3b"),
				ia("71-2:0:3d"), ia("71-225"), ia("71-2:0:5c"),
			},
			BestPerOrigin: 16,
			StartUnix:     1_737_000_000, // mid-January, paper time
		},
		Vantage: VantageASes(),
		Heatmap: Figure8ASes(),
	}

	for _, site := range Sites() {
		role := "leaf"
		if site.Core {
			role = "core"
		} else if hasChildren[site.IA] {
			role = "transit"
		}
		s.ASes = append(s.ASes, scenario.AS{
			Name:   site.Name,
			IA:     site.IA,
			Core:   site.Core,
			Role:   role,
			Region: site.Region.String(),
			Lat:    site.Lat,
			Lon:    site.Lon,
			Joined: site.Joined.Format("2006-01"),
			Effort: site.Effort,
			Kind:   site.Kind.String(),
		})
	}

	for _, l := range Links() {
		s.Links = append(s.Links, scenario.Link{
			Name: l.Name, A: l.A, B: l.B,
			Type:    linkTypeName(l.Type),
			ExtraMS: l.ExtraMS, Detour: l.Detour,
		})
	}
	for _, nl := range MidCampaignLinks() {
		s.NewLinks = append(s.NewLinks, scenario.NewLink{
			Link: scenario.Link{
				Name: nl.Spec.Name, A: nl.Spec.A, B: nl.Spec.B,
				Type:    linkTypeName(nl.Spec.Type),
				ExtraMS: nl.Spec.ExtraMS, Detour: nl.Spec.Detour,
			},
			ActivateHours: nl.Activate.Hours(),
		})
	}

	for _, inc := range Incidents() {
		s.Incidents = append(s.Incidents, scenario.Incident{
			Name:              inc.Name,
			Links:             inc.Links,
			StartHours:        inc.Start.Hours(),
			DurationHours:     inc.Duration.Hours(),
			FlapPeriodHours:   inc.FlapPeriod.Hours(),
			FlapDowntimeHours: inc.FlapDowntime.Hours(),
		})
	}

	plane := &scenario.IPPlane{
		DualHomeRegions: []string{Europe.String(), NorthAmerica.String()},
		AccessDetour:    1.03,
		AccessExtraMS:   0.3,
		PerHopMS:        ipPerHopMS,
	}
	for _, h := range ipHubs() {
		plane.Hubs = append(plane.Hubs, scenario.IPHub{Name: h.Name, IA: h.IA, Lat: h.Lat, Lon: h.Lon})
	}
	for _, e := range hubEdges() {
		plane.Edges = append(plane.Edges, scenario.IPEdge{A: e.a, B: e.b, Detour: e.detour})
	}
	s.IPPlane = plane

	for _, p := range PoPs() {
		s.PoPs = append(s.PoPs, scenario.PoP{
			Location: p.Location, PeeringNRENs: p.PeeringNRENs, PartnerNetworks: p.PartnerNetworks,
		})
	}

	// A modest open-loop load between the Amsterdam and Daejeon cores,
	// so the traffic engine has a workload to replay on the real
	// deployment topology.
	s.Traffic = &scenario.Traffic{
		Pairs: []scenario.TrafficPair{
			{Src: ia("71-2:0:3e"), Dst: ia("71-2:0:3b")},
			{Src: ia("71-2:0:3b"), Dst: ia("71-2:0:3e")},
		},
		EndpointsPerSource: 1 << 16,
		ArrivalRatePerPair: 2_000,
		FlowPackets:        32,
		PayloadBytes:       200,
		PacketIntervalMS:   100,
		Burst:              4,
		HorizonMS:          300,
		IntraASDelayUS:     1,
		Seed:               42,
	}
	return s, nil
}
