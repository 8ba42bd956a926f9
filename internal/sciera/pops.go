package sciera

import "sciera/internal/scenario"

// pops reproduces Table 1.
func pops() []scenario.PoP {
	return []scenario.PoP{
		{Location: "Amsterdam, NL", PeeringNRENs: []string{"GEANT", "KREONET"}, PartnerNetworks: []string{"Netherlight"}},
		{Location: "Ashburn, US", PeeringNRENs: []string{"BRIDGES"}, PartnerNetworks: []string{"Internet2", "MARIA"}},
		{Location: "Chicago, US", PeeringNRENs: []string{"KREONET"}, PartnerNetworks: []string{"Internet2", "StarLight"}},
		{Location: "Daejeon, KR", PeeringNRENs: []string{"KREONET"}, PartnerNetworks: []string{"KISTI"}},
		{Location: "Frankfurt, DE", PeeringNRENs: []string{"GEANT"}},
		{Location: "Geneva, CH", PeeringNRENs: []string{"GEANT"}, PartnerNetworks: []string{"CERN", "SWITCH"}},
		{Location: "Hong Kong, HK", PeeringNRENs: []string{"KREONET"}, PartnerNetworks: []string{"CSTNet", "HARNET"}},
		{Location: "Jacksonville, US", PeeringNRENs: []string{"RNP"}, PartnerNetworks: []string{"Internet2", "AtlanticWave"}},
		{Location: "Jeddah, SA", PeeringNRENs: []string{"GEANT", "KREONET"}, PartnerNetworks: []string{"KAUST"}},
		{Location: "Lisbon, PT", PeeringNRENs: []string{"GEANT", "RNP"}, PartnerNetworks: []string{"RedCLARA"}},
		{Location: "London, GB", PeeringNRENs: []string{"GEANT", "WACREN"}, PartnerNetworks: []string{"AfricaConnect"}},
		{Location: "Madrid, ES", PeeringNRENs: []string{"GEANT", "RNP"}, PartnerNetworks: []string{"RedCLARA"}},
		{Location: "McLean, US", PeeringNRENs: []string{"BRIDGES"}, PartnerNetworks: []string{"Internet2", "WIX"}},
		{Location: "Paris, FR", PeeringNRENs: []string{"GEANT"}, PartnerNetworks: []string{"SWITCH"}},
		{Location: "Seattle, US", PeeringNRENs: []string{"KREONET"}, PartnerNetworks: []string{"Internet2", "PacificWave"}},
		{Location: "Singapore, SG", PeeringNRENs: []string{"GEANT", "KREONET"}, PartnerNetworks: []string{"SingAREN"}},
	}
}

// campaignDays is the paper's measurement window length; day is one
// of them in the scenario's unit, hours.
const (
	campaignDays = 20
	day          = 24.0
)

// incidents reproduces the disclosed operational events of the
// measurement window (Section 5.4's outlier explanations and Figure 7's
// spikes); offsets are hours from campaign start and Links name
// circuits of links(). The campaign runs roughly Jan 15 – Feb 4 in
// paper time, so day offsets map Jan 21 to day 6, Jan 25 to day 10 and
// Feb 6 lies just past the end (we keep its preceding churn). The
// Korea–Singapore cable cut predates the window and holds for its
// entirety. A flapping incident cycles with FlapPeriodHours, down for
// FlapDowntimeHours at the start of each cycle.
func incidents() []scenario.Incident {
	return []scenario.Incident{
		{
			// Submarine cable cut: the Korea/Hong Kong-Singapore
			// corridor shares a cable system, so both the direct
			// Daejeon-Singapore circuit and the Hong Kong-Singapore
			// ring segment are down for the whole window; traffic
			// between Daejeon and Singapore routes the long way around
			// the globe (Chicago/Amsterdam) — the paper's first
			// Figure 6 outlier.
			// The corridor is intact for the first days of the window,
			// so the full direct-path diversity is observed before it
			// collapses — producing Figure 9's large median deviation
			// for the Daejeon-Singapore pair.
			Name:          "KR-SG submarine cable cut",
			Links:         []string{"KREONET DJ-SG", "KREONET HK-SG"},
			StartHours:    4 * day,
			DurationHours: (campaignDays - 4) * day,
		},
		{
			// BRIDGES instabilities: the transatlantic circuit of the
			// UVa/Princeton/Equinix hub flaps repeatedly during the
			// window; traffic reroutes over the Chicago Internet2
			// interconnect on longer paths (elevated RTTs, the paper's
			// second Figure 6 outlier — not a disconnection).
			Name:              "BRIDGES routing instabilities",
			Links:             []string{"GEANT-BRIDGES"},
			StartHours:        2 * day,
			DurationHours:     14 * day,
			FlapPeriodHours:   48,
			FlapDowntimeHours: 5,
		},
		{
			// The RNP-Internet2 circuit is down during the window, so
			// UFMS reaches North America through GEANT (the third
			// outlier set of Figure 6).
			Name:          "RNP-Internet2 circuit outage (UFMS detours via GEANT)",
			Links:         []string{"BRIDGES-RNP (Internet2/AtlanticWave)"},
			DurationHours: campaignDays * day,
		},
		{
			// Jan 21: maintenance affecting several links at once.
			Name: "maintenance window (Jan 21)",
			Links: []string{
				"GEANT-KISTI@AMS",
				"KREONET AMS-CHG",
				"GEANT-SWITCH (Geneva)",
			},
			StartHours:    6 * day,
			DurationHours: 18,
		},
		{
			// Jan 22-24: post-maintenance churn.
			Name:              "post-maintenance churn",
			Links:             []string{"GEANT-KISTI@AMS"},
			StartHours:        7 * day,
			DurationHours:     2 * day,
			FlapPeriodHours:   12,
			FlapDowntimeHours: 4,
		},
		{
			// Feb 6 spike equivalents: node upgrades near the end.
			Name:              "node upgrades",
			Links:             []string{"KREONET CHG-STL", "GEANT-BRIDGES"},
			StartHours:        18 * day,
			DurationHours:     2 * day,
			FlapPeriodHours:   16,
			FlapDowntimeHours: 5,
		},
	}
}
