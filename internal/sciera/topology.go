package sciera

import "sciera/internal/scenario"

// links lists the deployment's circuits (Figure 1 plus the textual
// descriptions in Section 3.2 and Appendix C). Parallel entries are
// genuine parallel circuits (e.g. the four Singapore–Amsterdam links).
// ExtraMS is cable-detour latency beyond the geodesic estimate; Detour
// overrides the default detour factor where a direct transoceanic NREN
// trunk (EllaLink, AtlanticWave) runs close to the geodesic.
func links() []scenario.Link {
	const core, parent = scenario.LinkCore, scenario.LinkParent
	return []scenario.Link{
		// Transatlantic / inter-core backbone.
		{A: ia("71-20965"), B: ia("71-2:0:35"), Type: core, Name: "GEANT-BRIDGES"},
		{A: ia("71-20965"), B: ia("71-2:0:3e"), Type: core, Name: "GEANT-KISTI@AMS"},
		{A: ia("71-20965"), B: ia("71-2:0:3d"), Type: core, Name: "GEANT-KISTI@SG"},
		// Chicago and Ashburn both sit on Internet2 (Table 1:
		// Internet2/StarLight at the Chicago PoP), interconnecting the
		// KREONET ring with BRIDGES inside North America.
		{A: ia("71-2:0:3f"), B: ia("71-2:0:35"), Type: core, Name: "KISTI@CHG-BRIDGES (Internet2)"},

		// KREONET ring around the Northern Hemisphere:
		// DJ - HK - SG - AMS - CHG - STL - DJ.
		{A: ia("71-2:0:3b"), B: ia("71-2:0:3c"), Type: core, Name: "KREONET DJ-HK"},
		{A: ia("71-2:0:3c"), B: ia("71-2:0:3d"), Type: core, Name: "KREONET HK-SG"},
		// Four distinct Singapore-Amsterdam circuits (KREONET, CAE-1,
		// KAUST I & II) — the multipath showcase of Section 3.2.
		{A: ia("71-2:0:3d"), B: ia("71-2:0:3e"), Type: core, Name: "KREONET SG-AMS"},
		{A: ia("71-2:0:3d"), B: ia("71-2:0:3e"), Type: core, Name: "CAE-1 SG-AMS", ExtraMS: 8},
		{A: ia("71-2:0:3d"), B: ia("71-2:0:3e"), Type: core, Name: "KAUST-I SG-AMS", ExtraMS: 14},
		{A: ia("71-2:0:3d"), B: ia("71-2:0:3e"), Type: core, Name: "KAUST-II SG-AMS", ExtraMS: 17},
		{A: ia("71-2:0:3e"), B: ia("71-2:0:3f"), Type: core, Name: "KREONET AMS-CHG"},
		{A: ia("71-2:0:3f"), B: ia("71-2:0:40"), Type: core, Name: "KREONET CHG-STL"},
		{A: ia("71-2:0:40"), B: ia("71-2:0:3b"), Type: core, Name: "KREONET STL-DJ"},
		// Direct Daejeon-Singapore circuit (the one cut by the 2024
		// submarine cable incident).
		{A: ia("71-2:0:3b"), B: ia("71-2:0:3d"), Type: core, Name: "KREONET DJ-SG"},

		// Inter-ISD: GEANT core to the Swiss production ISD via SWITCH.
		{A: ia("71-20965"), B: ia("64-559"), Type: core, Name: "GEANT-SWITCH64"},
		{A: ia("64-559"), B: ia("64-2:0:9"), Type: parent, Name: "SWITCH64-ETHZ"},

		// European leaves under GEANT.
		{A: ia("71-20965"), B: ia("71-559"), Type: parent, Name: "GEANT-SWITCH (Geneva)"},
		{A: ia("71-20965"), B: ia("71-559"), Type: parent, Name: "GEANT-SWITCH (Paris)", ExtraMS: 3},
		{A: ia("71-20965"), B: ia("71-1140"), Type: parent, Name: "GEANT-SIDN (VLAN1)"},
		{A: ia("71-20965"), B: ia("71-1140"), Type: parent, Name: "GEANT-SIDN (VLAN2)", ExtraMS: 3},
		{A: ia("71-20965"), B: ia("71-2546"), Type: parent, Name: "GEANT-Demokritos"},
		{A: ia("71-20965"), B: ia("71-2:0:42"), Type: parent, Name: "GEANT-OVGU"},
		{A: ia("71-20965"), B: ia("71-2:0:49"), Type: parent, Name: "GEANT-CybExer"},
		{A: ia("71-20965"), B: ia("71-203311"), Type: parent, Name: "GEANT-CCDCoE (reused CybExer VLANs)"},
		// WACREN@London over two VLANs.
		{A: ia("71-20965"), B: ia("71-37288"), Type: parent, Name: "GEANT-WACREN (VLAN1)", Detour: 1.25},
		{A: ia("71-20965"), B: ia("71-37288"), Type: parent, Name: "GEANT-WACREN (VLAN2)", ExtraMS: 2, Detour: 1.25},

		// North America under BRIDGES (Internet2 multipoint VLANs).
		// Measured last miles consist of two physical links each
		// (Section 5.5: "the last mile segments at both ends consist
		// of only two physical links").
		{A: ia("71-2:0:35"), B: ia("71-225"), Type: parent, Name: "BRIDGES-UVa (VLAN1)"},
		{A: ia("71-2:0:35"), B: ia("71-225"), Type: parent, Name: "BRIDGES-UVa (VLAN2)", ExtraMS: 2},
		{A: ia("71-2:0:35"), B: ia("71-88"), Type: parent, Name: "BRIDGES-Princeton"},
		{A: ia("71-2:0:35"), B: ia("71-2:0:48"), Type: parent, Name: "BRIDGES-Equinix (cross-connect 1)"},
		{A: ia("71-2:0:35"), B: ia("71-2:0:48"), Type: parent, Name: "BRIDGES-Equinix (cross-connect 2)", ExtraMS: 1},
		{A: ia("71-2:0:35"), B: ia("71-398900"), Type: parent, Name: "BRIDGES-FABRIC"},

		// South America: RNP dual-homed to GEANT and BRIDGES/Internet2
		// over direct submarine trunks (EllaLink / AtlanticWave).
		{A: ia("71-20965"), B: ia("71-1916"), Type: parent, Name: "GEANT-RNP (EllaLink)", Detour: 1.2},
		{A: ia("71-20965"), B: ia("71-1916"), Type: parent, Name: "GEANT-RNP (RedCLARA)", Detour: 1.35},
		{A: ia("71-2:0:35"), B: ia("71-1916"), Type: parent, Name: "BRIDGES-RNP (Internet2/AtlanticWave)", Detour: 1.2},
		{A: ia("71-1916"), B: ia("71-2:0:5c"), Type: parent, Name: "RNP-UFMS (VLAN1)"},
		{A: ia("71-1916"), B: ia("71-2:0:5c"), Type: parent, Name: "RNP-UFMS (VLAN2)", ExtraMS: 4},

		// Asian leaves under the KREONET cores.
		{A: ia("71-2:0:3d"), B: ia("71-2:0:18"), Type: parent, Name: "KISTI@SG-SEC (VXLAN over SingAREN)"},
		{A: ia("71-2:0:3d"), B: ia("71-2:0:61"), Type: parent, Name: "KISTI@SG-NUS (SingAREN OE)"},
		{A: ia("71-2:0:3d"), B: ia("71-50999"), Type: parent, Name: "KISTI@SG-KAUST"},
		{A: ia("71-2:0:3e"), B: ia("71-50999"), Type: parent, Name: "KISTI@AMS-KAUST"},
		{A: ia("71-2:0:3b"), B: ia("71-2:0:4a"), Type: parent, Name: "KISTI@DJ-KoreaUniv (VLAN1)"},
		{A: ia("71-2:0:3b"), B: ia("71-2:0:4a"), Type: parent, Name: "KISTI@DJ-KoreaUniv (VLAN2)", ExtraMS: 1},
		{A: ia("71-2:0:3c"), B: ia("71-4158"), Type: parent, Name: "KISTI@HK-CityU"},
	}
}

// newLinks lists the circuits that come up mid-campaign (Jan 25 is day
// 10: "several new links between EU and US became available"). They are
// built into the topology but held down until their activation. The
// new circuits parallel existing EU-US corridors (additional
// capacity/redundancy on trunks that already exist), so they add
// resilience without reshaping the per-pair path-count maxima.
func newLinks() []scenario.NewLink {
	return []scenario.NewLink{
		{Link: scenario.Link{A: ia("71-20965"), B: ia("71-2:0:35"), Type: scenario.LinkCore,
			Name: "GEANT-BRIDGES (new circuit)", ExtraMS: 4}, ActivateHours: 10 * day},
		{Link: scenario.Link{A: ia("71-20965"), B: ia("71-2:0:3e"), Type: scenario.LinkCore,
			Name: "GEANT-KISTI@AMS (new circuit)", ExtraMS: 2}, ActivateHours: 10 * day},
	}
}
