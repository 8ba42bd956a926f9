// Package scenario turns the repository's evaluation into data: a
// versioned, loadable description of everything a campaign or load run
// needs — the AS-level topology (with ISD membership, core/transit/leaf
// roles and PoP coordinates), the typed links between ASes (with
// explicit or geodesically derived latencies), the measurement vantage
// set, the incident schedule, the commercial-Internet baseline plane,
// and the traffic-engine parameters. Scenarios come from three sources,
// all funneled through the same strict loader: built-in registrations
// (the SCIERA reference deployment is data in internal/sciera, written
// in this package's types, and registers itself), scenario JSON files
// on disk, and the seeded deterministic generator for synthetic
// multi-ISD topologies of hundreds of ASes (generate.go). Every
// consumer — the experiment suite, the cmd/ binaries, the bench/
// workloads — comes through Resolve / MustBuiltin and builds with the
// scenario's own Build, BuildIPPlane and IPBaseline (there is no other
// builder), so each runs unchanged on any validated scenario, which is
// what turns the single paper reproduction into a benchmark suite.
package scenario

import (
	"fmt"
	"time"

	"sciera/internal/addr"
	"sciera/internal/topology"
)

// Version is the scenario schema version this package reads and writes.
const Version = 1

// Scenario is one complete, self-contained experiment description.
// A zero LatencyMS on a link means "derive from coordinates" — the
// loader resolves it during normalization, so a validated scenario
// always carries explicit latencies (and its canonical dump is fully
// resolved and diffable).
type Scenario struct {
	Version     int    `json:"version"`
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	ASes     []AS      `json:"ases"`
	Links    []Link    `json:"links"`
	NewLinks []NewLink `json:"new_links,omitempty"`

	// Vantage lists the ASes running the measurement tool; campaigns
	// probe every ordered vantage pair in this exact order (the
	// canonical AllPairs enumeration and its Seq numbering derive from
	// it, so order is semantic, not cosmetic).
	Vantage []addr.IA `json:"vantage"`
	// Heatmap is the AS subset of the per-pair matrix figures
	// (Figures 8/9); defaults to the first nine vantage ASes.
	Heatmap []addr.IA `json:"heatmap,omitempty"`

	Incidents []Incident `json:"incidents,omitempty"`
	Campaign  Campaign   `json:"campaign"`
	Traffic   *Traffic   `json:"traffic,omitempty"`
	IPPlane   *IPPlane   `json:"ip_plane,omitempty"`
	PoPs      []PoP      `json:"pops,omitempty"`
}

// AS is one autonomous system of the scenario.
type AS struct {
	Name string  `json:"name"`
	IA   addr.IA `json:"ia"`
	Core bool    `json:"core,omitempty"`
	// Role classifies the AS for generators and readers: "core",
	// "transit" or "leaf". Informational — the control plane derives
	// behaviour from Core and the link types.
	Role string `json:"role,omitempty"`
	// Region labels the deployment region ("EU", "NA", ...); the IP
	// plane's dual-homing rule keys on it.
	Region string  `json:"region,omitempty"`
	Lat    float64 `json:"lat"`
	Lon    float64 `json:"lon"`
	// Commercial marks commercial providers (research networks must not
	// carry transit between two commercial parties).
	Commercial bool `json:"commercial,omitempty"`

	// Joined ("YYYY-MM") dates the AS's deployment for the timeline
	// figure; empty when unknown.
	Joined string `json:"joined,omitempty"`
	// Effort is the relative deployment-effort estimate (1..10).
	Effort float64 `json:"effort,omitempty"`
	// Kind classifies the deployment for the learning-curve model
	// ("core-backbone", "nren-attach", "leaf-vlan", "leaf-new-vlan").
	Kind string `json:"kind,omitempty"`
}

// JoinedTime parses the Joined month; deployments date to the 15th.
func (a AS) JoinedTime() (time.Time, bool) {
	if a.Joined == "" {
		return time.Time{}, false
	}
	t, err := time.Parse("2006-01", a.Joined)
	if err != nil {
		return time.Time{}, false
	}
	return time.Date(t.Year(), t.Month(), 15, 0, 0, 0, 0, time.UTC), true
}

// Link types as scenario strings.
const (
	LinkCore   = "core"
	LinkParent = "parent"
	LinkPeer   = "peer"
)

// Link is one circuit between two ASes. For parent links, A is the
// parent (provider).
type Link struct {
	Name string  `json:"name"`
	A    addr.IA `json:"a"`
	B    addr.IA `json:"b"`
	Type string  `json:"type"`
	// LatencyMS is the one-way propagation delay. Zero in an input
	// scenario means "derive from the endpoint coordinates": geodesic
	// latency times the cable-detour factor, plus ExtraMS, floored at
	// 0.3 ms of equipment latency.
	LatencyMS float64 `json:"latency_ms,omitempty"`
	// ExtraMS adds cable-detour latency beyond the geodesic estimate.
	ExtraMS float64 `json:"extra_ms,omitempty"`
	// Detour overrides the default cable-detour factor (0 = default:
	// 1.25 for core circuits, 1.6 for last-mile circuits).
	Detour float64 `json:"detour,omitempty"`
	// BandwidthMbps caps the circuit (0 = unconstrained).
	BandwidthMbps float64 `json:"bandwidth_mbps,omitempty"`
}

// RuntimeLinkType maps a scenario link-type string to the topology
// type, for consumers wiring NewLinks as held-down runtime links.
func RuntimeLinkType(s string) (topology.LinkType, error) { return linkType(s) }

// linkType maps the scenario string to the topology type.
func linkType(s string) (topology.LinkType, error) {
	switch s {
	case LinkCore:
		return topology.LinkCore, nil
	case LinkParent:
		return topology.LinkParent, nil
	case LinkPeer:
		return topology.LinkPeer, nil
	default:
		return 0, fmt.Errorf("scenario: unknown link type %q", s)
	}
}

// NewLink is a circuit provisioned mid-campaign: built into the
// topology, held down, and brought up at its activation time. Runtime
// circuits ride provisioned waves, so a zero LatencyMS derives as the
// plain geodesic plus ExtraMS (no detour factor, no floor) — matching
// the reference run's semantics.
type NewLink struct {
	Link
	ActivateHours float64 `json:"activate_hours"`
}

// Activate is the activation offset into the campaign.
func (n NewLink) Activate() time.Duration { return hours(n.ActivateHours) }

// Incident is one scheduled operational event: the named links go down
// at Start for Duration, either solidly or flapping with the given
// period/downtime.
type Incident struct {
	Name  string   `json:"name"`
	Links []string `json:"links"`
	// StartHours offsets the incident from campaign start.
	StartHours    float64 `json:"start_hours"`
	DurationHours float64 `json:"duration_hours"`
	// FlapPeriodHours cycles the outage (0: solid outage for the whole
	// duration)...
	FlapPeriodHours float64 `json:"flap_period_hours,omitempty"`
	// ...staying down for FlapDowntimeHours at the start of each cycle
	// (0: half the period).
	FlapDowntimeHours float64 `json:"flap_downtime_hours,omitempty"`
}

// Start is the incident's offset into the campaign.
func (i Incident) Start() time.Duration { return hours(i.StartHours) }

// Duration is the incident's total window length.
func (i Incident) Duration() time.Duration { return hours(i.DurationHours) }

// FlapPeriod is the flap cycle length (0: solid outage).
func (i Incident) FlapPeriod() time.Duration { return hours(i.FlapPeriodHours) }

// FlapDowntime is the down window at the start of each flap cycle.
func (i Incident) FlapDowntime() time.Duration { return hours(i.FlapDowntimeHours) }

// hours converts a float64 hour count exactly for integral inputs.
func hours(h float64) time.Duration { return time.Duration(h * float64(time.Hour)) }

// Campaign holds the measurement-campaign parameters.
type Campaign struct {
	// Days is the measurement window length.
	Days int `json:"days"`
	// IntervalMinutes is the measurement round interval.
	IntervalMinutes float64 `json:"interval_minutes"`
	// QuickDays / QuickIntervalMinutes / QuickVantage shrink the
	// campaign for fast runs (tests, smoke checks). Defaults: two days
	// (capped at Days), twice the interval, the first six vantage ASes.
	QuickDays            int       `json:"quick_days,omitempty"`
	QuickIntervalMinutes float64   `json:"quick_interval_minutes,omitempty"`
	QuickVantage         []addr.IA `json:"quick_vantage,omitempty"`
	// BestPerOrigin bounds beacon stores (default 16). Large synthetic
	// topologies lower it to bound path-set explosion.
	BestPerOrigin int `json:"best_per_origin,omitempty"`
	// StartUnix is the simulation epoch (default 1737000000 —
	// mid-January, paper time).
	StartUnix int64 `json:"start_unix,omitempty"`
}

// Duration is the full campaign length.
func (c Campaign) Duration() time.Duration { return time.Duration(c.Days) * 24 * time.Hour }

// Interval is the full-campaign measurement round interval.
func (c Campaign) Interval() time.Duration {
	return time.Duration(c.IntervalMinutes * float64(time.Minute))
}

// QuickDuration is the reduced-scale campaign length.
func (c Campaign) QuickDuration() time.Duration {
	return time.Duration(c.QuickDays) * 24 * time.Hour
}

// QuickInterval is the reduced-scale round interval.
func (c Campaign) QuickInterval() time.Duration {
	return time.Duration(c.QuickIntervalMinutes * float64(time.Minute))
}

// Start is the simulation epoch.
func (c Campaign) Start() time.Time { return time.Unix(c.StartUnix, 0) }

// TrafficPair is one directed load relation.
type TrafficPair struct {
	Src addr.IA `json:"src"`
	Dst addr.IA `json:"dst"`
}

// Traffic parameterizes the flow-level traffic engine (internal/traffic).
type Traffic struct {
	Pairs              []TrafficPair `json:"pairs"`
	EndpointsPerSource int           `json:"endpoints_per_source"`
	ArrivalRatePerPair float64       `json:"arrival_rate_per_pair"`
	FlowPackets        int           `json:"flow_packets"`
	PayloadBytes       int           `json:"payload_bytes"`
	PacketIntervalMS   float64       `json:"packet_interval_ms"`
	Burst              int           `json:"burst"`
	HorizonMS          float64       `json:"horizon_ms"`
	// IntraASDelayUS is the simulated one-way delay between AS-internal
	// endpoints, in microseconds.
	IntraASDelayUS float64 `json:"intra_as_delay_us,omitempty"`
	Seed           int64   `json:"seed,omitempty"`
}

// IPPlane describes the commercial-Internet baseline: sites attach to
// their nearest transit hubs, the hubs form a sparse trunk graph with
// policy-detour inflation, and the BGP route is hop-count minimal.
type IPPlane struct {
	Hubs  []IPHub  `json:"hubs"`
	Edges []IPEdge `json:"edges"`
	// DualHomeRegions lists regions whose sites attach to their two
	// nearest hubs; sites elsewhere single-home.
	DualHomeRegions []string `json:"dual_home_regions,omitempty"`
	// AccessDetour and AccessExtraMS shape the site-to-hub last mile
	// (defaults 1.03 and 0.3: IXP-dense, near-geodesic).
	AccessDetour  float64 `json:"access_detour,omitempty"`
	AccessExtraMS float64 `json:"access_extra_ms,omitempty"`
	// PerHopMS is the per-hop forwarding cost of the RTT model
	// (default 0.15).
	PerHopMS float64 `json:"per_hop_ms,omitempty"`
}

// IPHub is one commercial transit hub.
type IPHub struct {
	Name string  `json:"name"`
	IA   addr.IA `json:"ia"`
	Lat  float64 `json:"lat"`
	Lon  float64 `json:"lon"`
}

// IPEdge is one hub-hub trunk; Detour inflates the geodesic.
type IPEdge struct {
	A      string  `json:"a"`
	B      string  `json:"b"`
	Detour float64 `json:"detour"`
}

// PoP is one point of presence (the Table 1 inventory).
type PoP struct {
	Location        string   `json:"location"`
	PeeringNRENs    []string `json:"peering_nrens"`
	PartnerNetworks []string `json:"partner_networks,omitempty"`
}

// ASByIA returns the scenario AS for an IA.
func (s *Scenario) ASByIA(target addr.IA) (AS, bool) {
	for _, a := range s.ASes {
		if a.IA == target {
			return a, true
		}
	}
	return AS{}, false
}

// ASName resolves an IA to its scenario name, falling back to the IA
// string.
func (s *Scenario) ASName(target addr.IA) string {
	if a, ok := s.ASByIA(target); ok {
		return a.Name
	}
	return target.String()
}

// QuickVantage returns the reduced-scale vantage set.
func (s *Scenario) QuickVantage() []addr.IA {
	if len(s.Campaign.QuickVantage) > 0 {
		return s.Campaign.QuickVantage
	}
	n := len(s.Vantage)
	if n > 6 {
		n = 6
	}
	return s.Vantage[:n]
}

// normalize fills defaults and resolves derived latencies in place. It
// is idempotent: normalizing an already-normalized scenario changes
// nothing, so canonical dumps reload byte-identically.
func (s *Scenario) normalize() error {
	if s.Campaign.BestPerOrigin == 0 {
		s.Campaign.BestPerOrigin = 16
	}
	if s.Campaign.IntervalMinutes == 0 {
		s.Campaign.IntervalMinutes = 5
	}
	if s.Campaign.QuickDays == 0 {
		s.Campaign.QuickDays = 2
		if s.Campaign.Days < 2 {
			s.Campaign.QuickDays = s.Campaign.Days
		}
	}
	if s.Campaign.QuickIntervalMinutes == 0 {
		s.Campaign.QuickIntervalMinutes = 2 * s.Campaign.IntervalMinutes
	}
	if len(s.Campaign.QuickVantage) == 0 {
		s.Campaign.QuickVantage = append([]addr.IA(nil), s.QuickVantage()...)
	}
	if s.Campaign.StartUnix == 0 {
		s.Campaign.StartUnix = 1_737_000_000
	}
	if len(s.Heatmap) == 0 {
		n := len(s.Vantage)
		if n > 9 {
			n = 9
		}
		s.Heatmap = append([]addr.IA(nil), s.Vantage[:n]...)
	}
	if p := s.IPPlane; p != nil {
		if p.AccessDetour == 0 {
			p.AccessDetour = 1.03
		}
		if p.AccessExtraMS == 0 {
			p.AccessExtraMS = 0.3
		}
		if p.PerHopMS == 0 {
			p.PerHopMS = 0.15
		}
	}
	for i := range s.Links {
		if err := s.resolveLatency(&s.Links[i], false); err != nil {
			return err
		}
	}
	for i := range s.NewLinks {
		if err := s.resolveLatency(&s.NewLinks[i].Link, true); err != nil {
			return err
		}
	}
	return nil
}

// resolveLatency fills a link's LatencyMS from the endpoint coordinates
// when it is not explicit. Academic L2 circuits detour through NREN PoPs
// rather than following geodesics: core circuits ride shared backbones
// (mild detour), last-mile circuits hairpin through exchange points
// (stronger detour). Runtime links (mid-campaign provisioning) ride the
// plain geodesic plus ExtraMS.
func (s *Scenario) resolveLatency(l *Link, runtimeLink bool) error {
	if l.LatencyMS != 0 {
		return nil
	}
	a, okA := s.ASByIA(l.A)
	b, okB := s.ASByIA(l.B)
	if !okA || !okB {
		return fmt.Errorf("scenario: link %q references unknown AS", l.Name)
	}
	if runtimeLink {
		l.LatencyMS = topology.GeoLatencyMS(a.Lat, a.Lon, b.Lat, b.Lon) + l.ExtraMS
		return nil
	}
	detour := 1.25
	if l.Type != LinkCore {
		detour = 1.6
	}
	if l.Detour > 0 {
		detour = l.Detour
	}
	lat := topology.GeoLatencyMS(a.Lat, a.Lon, b.Lat, b.Lon)*detour + l.ExtraMS
	if lat < 0.3 {
		lat = 0.3 // metro circuits still have equipment latency
	}
	l.LatencyMS = lat
	return nil
}

// Build constructs the SCION-plane topology of the scenario. NewLinks
// are not included — campaigns add them as held-down runtime links.
func (s *Scenario) Build() (*topology.Topology, error) {
	topo := topology.New()
	for _, a := range s.ASes {
		if err := topo.AddAS(topology.ASInfo{
			IA: a.IA, Core: a.Core, Name: a.Name, Lat: a.Lat, Lon: a.Lon,
			Commercial: a.Commercial,
		}); err != nil {
			return nil, err
		}
	}
	for _, l := range s.Links {
		t, err := linkType(l.Type)
		if err != nil {
			return nil, fmt.Errorf("scenario: link %q: %w", l.Name, err)
		}
		tl, err := topo.AddLink(
			topology.LinkEnd{IA: l.A}, topology.LinkEnd{IA: l.B},
			t, l.LatencyMS, l.Name,
		)
		if err != nil {
			return nil, fmt.Errorf("scenario: link %q: %w", l.Name, err)
		}
		if l.BandwidthMbps > 0 {
			tl.SetBandwidth(l.BandwidthMbps)
		}
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	return topo, nil
}

// BuildIPPlane constructs the commercial-Internet baseline topology
// over the scenario's sites. Returns an error when the scenario has no
// IP plane (campaign figures need one; pure load scenarios do not).
func (s *Scenario) BuildIPPlane() (*topology.Topology, error) {
	p := s.IPPlane
	if p == nil {
		return nil, fmt.Errorf("scenario %q: no IP plane (campaigns need the IP baseline)", s.Name)
	}
	topo := topology.New()
	for _, h := range p.Hubs {
		if err := topo.AddAS(topology.ASInfo{IA: h.IA, Core: true, Name: "transit-" + h.Name, Lat: h.Lat, Lon: h.Lon}); err != nil {
			return nil, err
		}
	}
	for _, a := range s.ASes {
		if err := topo.AddAS(topology.ASInfo{IA: a.IA, Name: a.Name, Lat: a.Lat, Lon: a.Lon}); err != nil {
			return nil, err
		}
	}
	hubByName := make(map[string]IPHub, len(p.Hubs))
	for _, h := range p.Hubs {
		hubByName[h.Name] = h
	}
	for _, e := range p.Edges {
		a, b := hubByName[e.A], hubByName[e.B]
		lat := topology.GeoLatencyMS(a.Lat, a.Lon, b.Lat, b.Lon) * e.Detour
		if _, err := topo.AddLink(
			topology.LinkEnd{IA: a.IA}, topology.LinkEnd{IA: b.IA},
			topology.LinkCore, lat, fmt.Sprintf("ip:%s-%s", a.Name, b.Name),
		); err != nil {
			return nil, err
		}
	}
	dual := make(map[string]bool, len(p.DualHomeRegions))
	for _, r := range p.DualHomeRegions {
		dual[r] = true
	}
	// Sites in dense transit markets dual-home; sites elsewhere reach
	// the world through their single nearest hub.
	for _, a := range s.ASes {
		homes := 1
		if dual[a.Region] {
			homes = 2
		}
		type cand struct {
			hub IPHub
			lat float64
		}
		best := []cand{}
		for _, h := range p.Hubs {
			l := topology.GeoLatencyMS(a.Lat, a.Lon, h.Lat, h.Lon)
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
			access := best[k].lat*p.AccessDetour + p.AccessExtraMS
			if _, err := topo.AddLink(
				topology.LinkEnd{IA: best[k].hub.IA}, topology.LinkEnd{IA: a.IA},
				topology.LinkParent, access, fmt.Sprintf("ip:%s-%s", best[k].hub.Name, a.Name),
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

// IPBaseline returns the BGP-routed RTT baseline over the scenario's IP
// plane (as built by BuildIPPlane), with the scenario's per-hop
// forwarding cost.
func (s *Scenario) IPBaseline(ipTopo *topology.Topology) *topology.BGPBaseline {
	perHop := 0.15
	if s.IPPlane != nil && s.IPPlane.PerHopMS > 0 {
		perHop = s.IPPlane.PerHopMS
	}
	return topology.NewBGPBaseline(ipTopo, perHop)
}
