package sciera

import (
	"fmt"

	"sciera/internal/addr"
	"sciera/internal/topology"
)

// The IP baseline plane. The paper compares SCION RTTs against ICMP
// over the commercial Internet, which has far more direct links than
// SCIERA's L2 circuits but routes by BGP policy (AS-path length, not
// latency) with the usual path inflation. We model this as a transit
// topology: every site attaches to its one or two nearest commercial
// transit hubs, the hubs form a full mesh, and hub-hub circuits carry a
// deterministic "policy detour" inflation of 15-40% over the geodesic.
// The BGP route is the hop-count-minimal path (topology.BGPWeight).

// ipHub is a commercial transit hub.
type ipHub struct {
	Name     string
	IA       addr.IA
	Lat, Lon float64
}

func ipHubs() []ipHub {
	return []ipHub{
		{"Frankfurt", ia("1-1"), 50.11, 8.68},
		{"London", ia("1-2"), 51.51, -0.13},
		{"Ashburn", ia("1-3"), 39.02, -77.46},
		{"LosAngeles", ia("1-4"), 34.05, -118.24},
		{"SaoPaulo", ia("1-5"), -23.55, -46.63},
		{"Singapore", ia("1-6"), 1.35, 103.82},
		{"Tokyo", ia("1-7"), 35.68, 139.69},
	}
}

// hubEdge is one transit trunk with its policy-detour factor:
// competitive primary trunks stay near the geodesic, secondary routes
// detour heavily (interdomain paths do not follow geodesics).
type hubEdge struct {
	a, b   string
	detour float64
}

// hubEdges is the transit backbone: a realistic sparse graph (there is
// no direct São Paulo-Singapore cable), so BGP's hop-count-minimal
// routes between far-apart regions compound detours — producing the
// heavy IP tail of Figure 5 — while the dense primary trunks keep
// midrange pairs fast.
func hubEdges() []hubEdge {
	return []hubEdge{
		{"Frankfurt", "London", 1.15},
		{"Frankfurt", "Ashburn", 1.2},
		{"London", "Ashburn", 1.25},
		{"Ashburn", "LosAngeles", 1.3},
		{"LosAngeles", "Tokyo", 1.25},
		{"Tokyo", "Singapore", 1.45},
		{"LosAngeles", "Singapore", 1.65},
		{"Frankfurt", "Singapore", 1.8}, // via Suez, congested
		{"SaoPaulo", "Ashburn", 1.4},
		{"SaoPaulo", "London", 1.65},
	}
}

// BuildIPPlane constructs the commercial-Internet topology over the
// same sites.
func BuildIPPlane() (*topology.Topology, error) {
	topo := topology.New()
	hubs := ipHubs()
	for _, h := range hubs {
		if err := topo.AddAS(topology.ASInfo{IA: h.IA, Core: true, Name: "transit-" + h.Name, Lat: h.Lat, Lon: h.Lon}); err != nil {
			return nil, err
		}
	}
	for _, s := range Sites() {
		if err := topo.AddAS(topology.ASInfo{IA: s.IA, Name: s.Name, Lat: s.Lat, Lon: s.Lon}); err != nil {
			return nil, err
		}
	}
	// Sparse transit backbone with policy detours.
	hubByName := make(map[string]ipHub, len(hubs))
	for _, h := range hubs {
		hubByName[h.Name] = h
	}
	for _, e := range hubEdges() {
		a, b := hubByName[e.a], hubByName[e.b]
		lat := topology.GeoLatencyMS(a.Lat, a.Lon, b.Lat, b.Lon) * e.detour
		if _, err := topo.AddLink(
			topology.LinkEnd{IA: a.IA}, topology.LinkEnd{IA: b.IA},
			topology.LinkCore, lat, fmt.Sprintf("ip:%s-%s", a.Name, b.Name),
		); err != nil {
			return nil, err
		}
	}
	// Sites in the dense EU/NA transit markets are dual-homed; sites
	// elsewhere reach the world through their single regional hub (the
	// common reality for SA/Asia/Africa NRENs).
	for _, s := range Sites() {
		homes := 1
		if s.Region == Europe || s.Region == NorthAmerica {
			homes = 2
		}
		type cand struct {
			hub ipHub
			lat float64
		}
		best := []cand{}
		for _, h := range hubs {
			l := topology.GeoLatencyMS(s.Lat, s.Lon, h.Lat, h.Lon)
			best = append(best, cand{h, l})
		}
		// Selection sort of the nearest hubs.
		for k := 0; k < homes && k < len(best); k++ {
			minIdx := k
			for m := k + 1; m < len(best); m++ {
				if best[m].lat < best[minIdx].lat {
					minIdx = m
				}
			}
			best[k], best[minIdx] = best[minIdx], best[k]
			access := best[k].lat*1.03 + 0.3 // IXP-dense last mile: near-geodesic
			if _, err := topo.AddLink(
				topology.LinkEnd{IA: best[k].hub.IA}, topology.LinkEnd{IA: s.IA},
				topology.LinkParent, access, fmt.Sprintf("ip:%s-%s", best[k].hub.Name, s.Name),
			); err != nil {
				return nil, err
			}
		}
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	return topo, nil
}

// ipPerHopMS is the per-hop forwarding cost of the IP plane's RTT model.
const ipPerHopMS = 0.15

// IPBaseline returns the BGP-routed RTT baseline between sites on the
// IP plane (as built by BuildIPPlane).
func IPBaseline(ipTopo *topology.Topology) *topology.BGPBaseline {
	return topology.NewBGPBaseline(ipTopo, ipPerHopMS)
}
