package sciera

import (
	"sciera/internal/addr"
	"sciera/internal/scenario"
)

// The paper's deployment regions; the IP plane's dual-homing rule keys
// on them.
const eu, na, asia, sa, af = "EU", "NA", "ASIA", "SA", "AF"

// Deployment classes of the Figure 3 learning-curve model.
const (
	coreBackbone = "core-backbone" // new core AS with hardware procurement
	nrenAttach   = "nren-attach"   // attach via an experienced NREN
	leafVLAN     = "leaf-vlan"     // leaf over established VLAN infrastructure
	leafNewVLAN  = "leaf-new-vlan" // leaf needing new multi-party VLANs
)

func ia(s string) addr.IA { return addr.MustParseIA(s) }

// ases lists every AS of the deployment (Figure 1 plus Figure 3
// timing: Joined is the month the AS connected, Effort the paper's
// relative deployment-effort estimate, 1 = trivial, 10 = months of
// coordination). Order: roughly by join date within a region. RNP is
// the one non-core AS that parents another (UFMS): "transit".
func ases() []scenario.AS {
	return []scenario.AS{
		// Europe.
		{Name: "GEANT", IA: ia("71-20965"), Core: true, Role: "core", Region: eu, Lat: 50.11, Lon: 8.68,
			Joined: "2022-06", Effort: 9.0, Kind: coreBackbone},
		{Name: "SWITCH", IA: ia("71-559"), Role: "leaf", Region: eu, Lat: 46.20, Lon: 6.14,
			Joined: "2022-09", Effort: 2.0, Kind: nrenAttach},
		{Name: "SIDN Labs", IA: ia("71-1140"), Role: "leaf", Region: eu, Lat: 52.09, Lon: 5.12,
			Joined: "2023-03", Effort: 2.0, Kind: leafVLAN},
		{Name: "CybExer", IA: ia("71-2:0:49"), Role: "leaf", Region: eu, Lat: 59.44, Lon: 24.75,
			Joined: "2023-07", Effort: 1.5, Kind: leafVLAN},
		{Name: "OVGU", IA: ia("71-2:0:42"), Role: "leaf", Region: eu, Lat: 52.14, Lon: 11.64,
			Joined: "2023-08", Effort: 2.0, Kind: leafVLAN},
		{Name: "Demokritos", IA: ia("71-2546"), Role: "leaf", Region: eu, Lat: 37.99, Lon: 23.82,
			Joined: "2023-09", Effort: 1.5, Kind: leafVLAN},
		{Name: "CCDCoE", IA: ia("71-203311"), Role: "leaf", Region: eu, Lat: 59.40, Lon: 24.67,
			Joined: "2024-09", Effort: 1.0, Kind: leafVLAN},

		// North America.
		{Name: "BRIDGES", IA: ia("71-2:0:35"), Core: true, Role: "core", Region: na, Lat: 38.95, Lon: -77.45,
			Joined: "2023-03", Effort: 8.0, Kind: coreBackbone},
		{Name: "UVa", IA: ia("71-225"), Role: "leaf", Region: na, Lat: 38.03, Lon: -78.51,
			Joined: "2023-03", Effort: 5.0, Kind: leafNewVLAN},
		{Name: "Equinix", IA: ia("71-2:0:48"), Role: "leaf", Region: na, Lat: 39.02, Lon: -77.46,
			Joined: "2023-05", Effort: 4.0, Kind: leafNewVLAN},
		{Name: "Princeton", IA: ia("71-88"), Role: "leaf", Region: na, Lat: 40.34, Lon: -74.65,
			Joined: "2023-08", Effort: 5.0, Kind: leafNewVLAN},
		{Name: "FABRIC", IA: ia("71-398900"), Role: "leaf", Region: na, Lat: 35.91, Lon: -79.05,
			Joined: "2023-11", Effort: 3.0, Kind: leafVLAN},

		// Asia (KREONET ring cores + leaves).
		{Name: "KISTI DJ", IA: ia("71-2:0:3b"), Core: true, Role: "core", Region: asia, Lat: 36.35, Lon: 127.38,
			Joined: "2024-05", Effort: 6.0, Kind: coreBackbone},
		{Name: "KISTI SG", IA: ia("71-2:0:3d"), Core: true, Role: "core", Region: asia, Lat: 1.35, Lon: 103.82,
			Joined: "2024-05", Effort: 5.5, Kind: coreBackbone},
		{Name: "KISTI AMS", IA: ia("71-2:0:3e"), Core: true, Role: "core", Region: eu, Lat: 52.37, Lon: 4.90,
			Joined: "2024-05", Effort: 5.5, Kind: coreBackbone},
		{Name: "KISTI CHG", IA: ia("71-2:0:3f"), Core: true, Role: "core", Region: na, Lat: 41.88, Lon: -87.63,
			Joined: "2023-10", Effort: 4.5, Kind: coreBackbone},
		{Name: "KISTI HK", IA: ia("71-2:0:3c"), Core: true, Role: "core", Region: asia, Lat: 22.32, Lon: 114.17,
			Joined: "2024-08", Effort: 2.5, Kind: coreBackbone},
		{Name: "KISTI STL", IA: ia("71-2:0:40"), Core: true, Role: "core", Region: na, Lat: 47.61, Lon: -122.33,
			Joined: "2024-08", Effort: 2.5, Kind: coreBackbone},
		{Name: "SEC", IA: ia("71-2:0:18"), Role: "leaf", Region: asia, Lat: 1.30, Lon: 103.77,
			Joined: "2023-10", Effort: 3.5, Kind: leafNewVLAN},
		// 71-2:0:4a appears in Figures 8/9 without a name; we assign it
		// to Korea University (the remaining named Asian leaf).
		{Name: "Korea University", IA: ia("71-2:0:4a"), Role: "leaf", Region: asia, Lat: 37.59, Lon: 127.03,
			Joined: "2024-06", Effort: 2.0, Kind: leafVLAN},
		{Name: "CityU HK", IA: ia("71-4158"), Role: "leaf", Region: asia, Lat: 22.34, Lon: 114.17,
			Joined: "2024-10", Effort: 2.0, Kind: leafVLAN},
		{Name: "NUS", IA: ia("71-2:0:61"), Role: "leaf", Region: asia, Lat: 1.30, Lon: 103.78,
			Joined: "2025-06", Effort: 1.5, Kind: leafVLAN},
		{Name: "KAUST", IA: ia("71-50999"), Role: "leaf", Region: asia, Lat: 22.31, Lon: 39.10,
			Joined: "2025-03", Effort: 3.0, Kind: leafNewVLAN},

		// South America.
		{Name: "RNP", IA: ia("71-1916"), Role: "transit", Region: sa, Lat: -22.91, Lon: -43.17,
			Joined: "2025-04", Effort: 2.0, Kind: nrenAttach},
		{Name: "UFMS", IA: ia("71-2:0:5c"), Role: "leaf", Region: sa, Lat: -20.47, Lon: -54.62,
			Joined: "2024-08", Effort: 2.5, Kind: leafVLAN},

		// Africa.
		{Name: "WACREN", IA: ia("71-37288"), Role: "leaf", Region: af, Lat: 51.51, Lon: -0.13, // WACREN@London PoP
			Joined: "2024-11", Effort: 3.0, Kind: nrenAttach},

		// ISD 64 (the Swiss production ISD reached via SWITCH).
		{Name: "SWITCH (ISD64)", IA: ia("64-559"), Core: true, Role: "core", Region: eu, Lat: 47.38, Lon: 8.54,
			Joined: "2022-09", Effort: 1.0, Kind: nrenAttach},
		{Name: "ETH Zurich", IA: ia("64-2:0:9"), Role: "leaf", Region: eu, Lat: 47.38, Lon: 8.55,
			Joined: "2022-09", Effort: 1.0, Kind: leafVLAN},
	}
}
