package sciera

import "sciera/internal/scenario"

// ipPlane is the IP baseline plane. The paper compares SCION RTTs
// against ICMP over the commercial Internet, which has far more direct
// links than SCIERA's L2 circuits but routes by BGP policy (AS-path
// length, not latency) with the usual path inflation. We model this as
// a transit topology: every site attaches to its one or two nearest
// commercial transit hubs, the hubs form a sparse trunk graph, and
// hub-hub trunks carry a deterministic "policy detour" inflation over
// the geodesic. The BGP route is the hop-count-minimal path
// (topology.BGPWeight).
//
// The trunk graph is realistic and sparse (there is no direct São
// Paulo-Singapore cable), so BGP's hop-count-minimal routes between
// far-apart regions compound detours — producing the heavy IP tail of
// Figure 5 — while the dense primary trunks keep midrange pairs fast:
// competitive primary trunks stay near the geodesic, secondary routes
// detour heavily (interdomain paths do not follow geodesics).
//
// Sites in the dense EU/NA transit markets are dual-homed; sites
// elsewhere reach the world through their single regional hub (the
// common reality for SA/Asia/Africa NRENs). The last mile is IXP-dense
// and near-geodesic (AccessDetour, AccessExtraMS); PerHopMS is the
// per-hop forwarding cost of the RTT model.
func ipPlane() *scenario.IPPlane {
	return &scenario.IPPlane{
		Hubs: []scenario.IPHub{
			{Name: "Frankfurt", IA: ia("1-1"), Lat: 50.11, Lon: 8.68},
			{Name: "London", IA: ia("1-2"), Lat: 51.51, Lon: -0.13},
			{Name: "Ashburn", IA: ia("1-3"), Lat: 39.02, Lon: -77.46},
			{Name: "LosAngeles", IA: ia("1-4"), Lat: 34.05, Lon: -118.24},
			{Name: "SaoPaulo", IA: ia("1-5"), Lat: -23.55, Lon: -46.63},
			{Name: "Singapore", IA: ia("1-6"), Lat: 1.35, Lon: 103.82},
			{Name: "Tokyo", IA: ia("1-7"), Lat: 35.68, Lon: 139.69},
		},
		Edges: []scenario.IPEdge{
			{A: "Frankfurt", B: "London", Detour: 1.15},
			{A: "Frankfurt", B: "Ashburn", Detour: 1.2},
			{A: "London", B: "Ashburn", Detour: 1.25},
			{A: "Ashburn", B: "LosAngeles", Detour: 1.3},
			{A: "LosAngeles", B: "Tokyo", Detour: 1.25},
			{A: "Tokyo", B: "Singapore", Detour: 1.45},
			{A: "LosAngeles", B: "Singapore", Detour: 1.65},
			{A: "Frankfurt", B: "Singapore", Detour: 1.8}, // via Suez, congested
			{A: "SaoPaulo", B: "Ashburn", Detour: 1.4},
			{A: "SaoPaulo", B: "London", Detour: 1.65},
		},
		DualHomeRegions: []string{eu, na},
		AccessDetour:    1.03,
		AccessExtraMS:   0.3,
		PerHopMS:        0.15,
	}
}
