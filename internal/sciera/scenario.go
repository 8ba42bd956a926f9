// Package sciera is the SCIERA deployment as data: one
// scenario.Scenario, written directly in the scenario package's types
// and registered as the builtin "sciera". Nothing is built here — the
// scenario's own Build, BuildIPPlane and IPBaseline are the only
// builders, and every consumer reaches the deployment through
// scenario.Resolve / MustBuiltin("sciera"). scenarios/sciera.json is
// the canonical dump of this package and pins it byte for byte
// (TestBuiltinMatchesCommittedJSON).
//
// Which list reproduces what:
//
//   - ases (ases.go): the Figure 1 topology's ASes — ISD 71 plus the two
//     ISD 64 ASes reached via SWITCH — with PoP coordinates, and the
//     Figure 3 deployment timeline (Joined, Effort, Kind).
//   - links, newLinks (topology.go): the Figure 1 circuits with the
//     textual detail of Section 3.2 and Appendix C, and the EU-US
//     circuits that came up mid-campaign (Jan 25).
//   - incidents (pops.go): the incident calendar disclosed in
//     Section 5.4 (Figure 6's outliers, Figure 7's spikes).
//   - pops (pops.go): Table 1.
//   - ipPlane (ipplane.go): the commercial-Internet topology used as
//     the BGP baseline.
//   - VantageASes, Figure8ASes: the 11 multiping ASes of Section 5.4
//     and the nine of the Figure 8/9 heatmaps, in dataset order.
//
// Link latencies carry no number here: the scenario loader derives them
// from great-circle distances between the PoPs (topology.GeoLatencyMS)
// — the substitution documented in DESIGN.md for the paper's physical
// circuits. AS numbers follow the paper; where the paper leaves an AS
// unnamed (71-2:0:4a appears only in Figures 8/9) we assign it to Korea
// University and note it here.
package sciera

import (
	"sciera/internal/addr"
	"sciera/internal/scenario"
)

func init() {
	scenario.Register("sciera", Scenario)
}

// Scenario assembles the deployment's lists into the builtin "sciera"
// scenario document. The registry normalizes (derives the geodesic
// latencies) and validates it on every lookup.
func Scenario() *scenario.Scenario {
	return &scenario.Scenario{
		Version: scenario.Version,
		Name:    "sciera",
		Description: "The SCIERA deployment: Figure 1 topology (ISD 71 plus the " +
			"ISD 64 ASes reached via SWITCH), Table 1 PoPs, the Figure 3 " +
			"deployment timeline, the Section 5.4 incident calendar, and the " +
			"commercial-Internet baseline plane.",
		ASes:      ases(),
		Links:     links(),
		NewLinks:  newLinks(),
		Vantage:   VantageASes(),
		Heatmap:   Figure8ASes(),
		Incidents: incidents(),
		Campaign: scenario.Campaign{
			Days:                 campaignDays,
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
		// A modest open-loop load between the Amsterdam and Daejeon
		// cores, so the traffic engine has a workload to replay on the
		// real deployment topology.
		Traffic: &scenario.Traffic{
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
		},
		IPPlane: ipPlane(),
		PoPs:    pops(),
	}
}

// VantageASes lists the ASes running the multiping measurement tool
// (Section 5.4 deploys it in 11 ASes; the nine of Figures 8/9 plus
// SWITCH and SIDN Labs).
func VantageASes() []addr.IA {
	return []addr.IA{
		ia("71-20965"),  // GEANT (EU)
		ia("71-559"),    // SWITCH (EU)
		ia("71-1140"),   // SIDN Labs (EU)
		ia("71-2:0:3e"), // KISTI AMS (EU)
		ia("71-2:0:3b"), // KISTI DJ (Asia)
		ia("71-2:0:3d"), // KISTI SG (Asia)
		ia("71-2:0:4a"), // Korea University (Asia)
		ia("71-225"),    // UVa (NA)
		ia("71-2:0:48"), // Equinix (NA)
		ia("71-2:0:3f"), // KISTI CHG (NA)
		ia("71-2:0:5c"), // UFMS (SA)
	}
}

// Figure8ASes lists the nine ASes of the path-diversity heatmaps.
func Figure8ASes() []addr.IA {
	return []addr.IA{
		ia("71-20965"),
		ia("71-225"),
		ia("71-2:0:3b"),
		ia("71-2:0:3d"),
		ia("71-2:0:3e"),
		ia("71-2:0:3f"),
		ia("71-2:0:48"),
		ia("71-2:0:4a"),
		ia("71-2:0:5c"),
	}
}
