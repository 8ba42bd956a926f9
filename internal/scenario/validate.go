package scenario

import (
	"fmt"
	"math"

	"sciera/internal/addr"
	"sciera/internal/topology"
)

// Validate checks a normalized scenario for structural soundness and
// returns a descriptive error for the first violation found. The
// loader runs it on every path into the package (files, builtins,
// generated scenarios), so downstream code can assume: unique IAs,
// unique non-empty link names, links between known ASes, core links
// between core ASes, a connected SCION graph in which every non-core AS
// is down-reachable from the core over parent links that form no cycle
// (topology.ParentCycle, the check the built topology runs too), at
// least one core AS per ISD, a
// vantage set (≥2, all known), incidents that target known base links
// with sane windows, coordinates on the globe, and no negative or
// non-finite knob — a negative interval or detour must not silently
// become some consumer's fallback.
func (s *Scenario) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("scenario %q: unsupported version %d (want %d)", s.Name, s.Version, Version)
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if len(s.ASes) == 0 {
		return fmt.Errorf("scenario %q: no ASes", s.Name)
	}

	byIA := make(map[addr.IA]AS, len(s.ASes))
	coreISDs := make(map[addr.ISD]bool)
	allISDs := make(map[addr.ISD]bool)
	for _, a := range s.ASes {
		if a.Name == "" {
			return fmt.Errorf("scenario %q: AS %s: missing name", s.Name, a.IA)
		}
		if _, dup := byIA[a.IA]; dup {
			return fmt.Errorf("scenario %q: duplicate AS %s", s.Name, a.IA)
		}
		if off := offGlobe(a.Lat, a.Lon); off != "" {
			return fmt.Errorf("scenario %q: AS %s: %s", s.Name, a.IA, off)
		}
		byIA[a.IA] = a
		allISDs[a.IA.ISD()] = true
		if a.Core {
			coreISDs[a.IA.ISD()] = true
		}
		if a.Joined != "" {
			if _, ok := a.JoinedTime(); !ok {
				return fmt.Errorf("scenario %q: AS %s: bad joined date %q (want YYYY-MM)", s.Name, a.IA, a.Joined)
			}
		}
	}
	for isd := range allISDs {
		if !coreISDs[isd] {
			return fmt.Errorf("scenario %q: ISD %d has no core AS", s.Name, isd)
		}
	}

	if len(s.Links) == 0 {
		return fmt.Errorf("scenario %q: no links", s.Name)
	}
	linkNames := make(map[string]bool, len(s.Links))
	checkLink := func(l Link, runtimeLink bool) error {
		if l.Name == "" {
			return fmt.Errorf("scenario %q: link %s~%s: missing name", s.Name, l.A, l.B)
		}
		if linkNames[l.Name] {
			return fmt.Errorf("scenario %q: duplicate link name %q", s.Name, l.Name)
		}
		linkNames[l.Name] = true
		a, okA := byIA[l.A]
		b, okB := byIA[l.B]
		if !okA {
			return fmt.Errorf("scenario %q: link %q: unknown AS %s", s.Name, l.Name, l.A)
		}
		if !okB {
			return fmt.Errorf("scenario %q: link %q: unknown AS %s", s.Name, l.Name, l.B)
		}
		if l.A == l.B {
			return fmt.Errorf("scenario %q: link %q: self-loop on %s", s.Name, l.Name, l.A)
		}
		switch l.Type {
		case LinkCore:
			if !a.Core || !b.Core {
				return fmt.Errorf("scenario %q: core link %q between non-core ASes (%s core=%v, %s core=%v)",
					s.Name, l.Name, l.A, a.Core, l.B, b.Core)
			}
		case LinkParent:
			if b.Core {
				return fmt.Errorf("scenario %q: parent link %q: child %s is a core AS", s.Name, l.Name, l.B)
			}
		case LinkPeer:
		default:
			return fmt.Errorf("scenario %q: link %q: unknown type %q", s.Name, l.Name, l.Type)
		}
		if !positive(l.LatencyMS) {
			return fmt.Errorf("scenario %q: link %q: latency %g ms is not positive and finite", s.Name, l.Name, l.LatencyMS)
		}
		if l.Detour < 0 {
			return fmt.Errorf("scenario %q: link %q: negative detour %g", s.Name, l.Name, l.Detour)
		}
		if l.BandwidthMbps < 0 {
			return fmt.Errorf("scenario %q: link %q: negative bandwidth_mbps %g", s.Name, l.Name, l.BandwidthMbps)
		}
		return nil
	}
	for _, l := range s.Links {
		if err := checkLink(l, false); err != nil {
			return err
		}
	}
	for _, nl := range s.NewLinks {
		if err := checkLink(nl.Link, true); err != nil {
			return err
		}
		if nl.ActivateHours < 0 {
			return fmt.Errorf("scenario %q: new link %q: negative activation %g h", s.Name, nl.Name, nl.ActivateHours)
		}
	}

	if err := s.checkConnectivity(); err != nil {
		return err
	}

	if len(s.Vantage) < 2 {
		return fmt.Errorf("scenario %q: need at least 2 vantage ASes, have %d", s.Name, len(s.Vantage))
	}
	checkSubset := func(what string, ias []addr.IA) error {
		seen := make(map[addr.IA]bool, len(ias))
		for _, ia := range ias {
			if _, ok := byIA[ia]; !ok {
				return fmt.Errorf("scenario %q: %s AS %s not in scenario", s.Name, what, ia)
			}
			if seen[ia] {
				return fmt.Errorf("scenario %q: duplicate %s AS %s", s.Name, what, ia)
			}
			seen[ia] = true
		}
		return nil
	}
	if err := checkSubset("vantage", s.Vantage); err != nil {
		return err
	}
	if err := checkSubset("heatmap", s.Heatmap); err != nil {
		return err
	}
	if err := checkSubset("quick-vantage", s.Campaign.QuickVantage); err != nil {
		return err
	}

	if s.Campaign.Days <= 0 {
		return fmt.Errorf("scenario %q: campaign days must be positive, got %d", s.Name, s.Campaign.Days)
	}
	if s.Campaign.QuickDays < 0 {
		return fmt.Errorf("scenario %q: negative quick_days %d", s.Name, s.Campaign.QuickDays)
	}
	if s.Campaign.QuickDays > s.Campaign.Days {
		return fmt.Errorf("scenario %q: quick days %d exceed campaign days %d", s.Name, s.Campaign.QuickDays, s.Campaign.Days)
	}
	if !positive(s.Campaign.IntervalMinutes) {
		return fmt.Errorf("scenario %q: interval_minutes must be positive, got %g", s.Name, s.Campaign.IntervalMinutes)
	}
	if !positive(s.Campaign.QuickIntervalMinutes) {
		return fmt.Errorf("scenario %q: quick_interval_minutes must be positive, got %g", s.Name, s.Campaign.QuickIntervalMinutes)
	}
	if s.Campaign.BestPerOrigin < 0 {
		return fmt.Errorf("scenario %q: negative best_per_origin %d", s.Name, s.Campaign.BestPerOrigin)
	}

	// Incidents may only target base links: a new link's outage window
	// would race its activation event.
	baseNames := make(map[string]bool, len(s.Links))
	for _, l := range s.Links {
		baseNames[l.Name] = true
	}
	for _, inc := range s.Incidents {
		if inc.Name == "" {
			return fmt.Errorf("scenario %q: incident with no name", s.Name)
		}
		if len(inc.Links) == 0 {
			return fmt.Errorf("scenario %q: incident %q targets no links", s.Name, inc.Name)
		}
		for _, ln := range inc.Links {
			if !baseNames[ln] {
				return fmt.Errorf("scenario %q: incident %q targets unknown link %q", s.Name, inc.Name, ln)
			}
		}
		if inc.StartHours < 0 {
			return fmt.Errorf("scenario %q: incident %q: negative start %g h", s.Name, inc.Name, inc.StartHours)
		}
		if inc.DurationHours <= 0 {
			return fmt.Errorf("scenario %q: incident %q: non-positive duration %g h", s.Name, inc.Name, inc.DurationHours)
		}
		if inc.FlapPeriodHours > 0 && inc.FlapDowntimeHours >= inc.FlapPeriodHours {
			return fmt.Errorf("scenario %q: incident %q: flap downtime %g h must be shorter than period %g h",
				s.Name, inc.Name, inc.FlapDowntimeHours, inc.FlapPeriodHours)
		}
	}

	if p := s.IPPlane; p != nil {
		if err := s.validateIPPlane(p, byIA); err != nil {
			return err
		}
	}

	if t := s.Traffic; t != nil {
		if len(t.Pairs) == 0 {
			return fmt.Errorf("scenario %q: traffic section with no pairs", s.Name)
		}
		for _, pr := range t.Pairs {
			if _, ok := byIA[pr.Src]; !ok {
				return fmt.Errorf("scenario %q: traffic pair source %s not in scenario", s.Name, pr.Src)
			}
			if _, ok := byIA[pr.Dst]; !ok {
				return fmt.Errorf("scenario %q: traffic pair destination %s not in scenario", s.Name, pr.Dst)
			}
		}
		if t.EndpointsPerSource <= 0 || t.ArrivalRatePerPair <= 0 || t.FlowPackets <= 0 ||
			t.PayloadBytes <= 0 || t.PacketIntervalMS <= 0 || t.HorizonMS <= 0 {
			return fmt.Errorf("scenario %q: traffic parameters must be positive", s.Name)
		}
	}
	return nil
}

// checkConnectivity verifies the SCION graph is connected (treating
// links as undirected) and that every non-core AS is reachable from
// some core AS walking parent links downward — the beaconing reach
// condition: an AS outside that set never learns a path.
func (s *Scenario) checkConnectivity() error {
	adj := make(map[addr.IA][]addr.IA, len(s.ASes))
	down := make(map[addr.IA][]addr.IA, len(s.ASes))
	// everDown adds the parent links that activate mid-campaign: one that
	// closes a cycle then is as wrong as one that closes it at build time.
	everDown := make(map[addr.IA][]addr.IA, len(s.ASes))
	for _, l := range s.Links {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
		if l.Type == LinkParent {
			down[l.A] = append(down[l.A], l.B)
			everDown[l.A] = append(everDown[l.A], l.B)
		}
	}
	for _, nl := range s.NewLinks {
		if nl.Type == LinkParent {
			everDown[nl.A] = append(everDown[nl.A], nl.B)
		}
	}
	if parent, child, ok := topology.ParentCycle(everDown); ok {
		return fmt.Errorf("scenario %q: parent cycle through %s (%s) and %s (%s)",
			s.Name, s.ASName(parent), parent, s.ASName(child), child)
	}

	visited := make(map[addr.IA]bool, len(s.ASes))
	queue := []addr.IA{s.ASes[0].IA}
	visited[s.ASes[0].IA] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range adj[cur] {
			if !visited[next] {
				visited[next] = true
				queue = append(queue, next)
			}
		}
	}
	if len(visited) != len(s.ASes) {
		var missing addr.IA
		for _, a := range s.ASes {
			if !visited[a.IA] {
				missing = a.IA
				break
			}
		}
		return fmt.Errorf("scenario %q: graph is disconnected: %s unreachable from %s (%d of %d ASes reachable)",
			s.Name, missing, s.ASes[0].IA, len(visited), len(s.ASes))
	}

	reached := make(map[addr.IA]bool, len(s.ASes))
	queue = queue[:0]
	for _, a := range s.ASes {
		if a.Core {
			reached[a.IA] = true
			queue = append(queue, a.IA)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, child := range down[cur] {
			if !reached[child] {
				reached[child] = true
				queue = append(queue, child)
			}
		}
	}
	for _, a := range s.ASes {
		if !reached[a.IA] {
			return fmt.Errorf("scenario %q: AS %s has no parent chain to a core AS (beacons cannot reach it)",
				s.Name, a.IA)
		}
	}
	return nil
}

// positive reports a finite value above zero (a derived latency or a
// doubled interval can overflow to +Inf, which no dump can carry).
func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// offGlobe names the coordinate that is off the globe, or returns "".
func offGlobe(lat, lon float64) string {
	if !(lat >= -90 && lat <= 90) {
		return fmt.Sprintf("latitude %g outside [-90, 90]", lat)
	}
	if !(lon >= -180 && lon <= 180) {
		return fmt.Sprintf("longitude %g outside [-180, 180]", lon)
	}
	return ""
}

func (s *Scenario) validateIPPlane(p *IPPlane, byIA map[addr.IA]AS) error {
	if len(p.Hubs) == 0 {
		return fmt.Errorf("scenario %q: IP plane with no hubs", s.Name)
	}
	if p.AccessDetour < 0 {
		return fmt.Errorf("scenario %q: IP plane: negative access_detour %g", s.Name, p.AccessDetour)
	}
	if p.AccessExtraMS < 0 {
		return fmt.Errorf("scenario %q: IP plane: negative access_extra_ms %g", s.Name, p.AccessExtraMS)
	}
	if p.PerHopMS < 0 {
		return fmt.Errorf("scenario %q: IP plane: negative per_hop_ms %g", s.Name, p.PerHopMS)
	}
	hubNames := make(map[string]bool, len(p.Hubs))
	hubIAs := make(map[addr.IA]bool, len(p.Hubs))
	for _, h := range p.Hubs {
		if h.Name == "" {
			return fmt.Errorf("scenario %q: IP hub with no name", s.Name)
		}
		if hubNames[h.Name] {
			return fmt.Errorf("scenario %q: duplicate IP hub %q", s.Name, h.Name)
		}
		hubNames[h.Name] = true
		if hubIAs[h.IA] {
			return fmt.Errorf("scenario %q: duplicate IP hub IA %s", s.Name, h.IA)
		}
		hubIAs[h.IA] = true
		if _, clash := byIA[h.IA]; clash {
			return fmt.Errorf("scenario %q: IP hub %q IA %s collides with a scenario AS", s.Name, h.Name, h.IA)
		}
		if off := offGlobe(h.Lat, h.Lon); off != "" {
			return fmt.Errorf("scenario %q: IP hub %q: %s", s.Name, h.Name, off)
		}
	}
	hubAdj := make(map[string][]string, len(p.Hubs))
	for _, e := range p.Edges {
		if !hubNames[e.A] {
			return fmt.Errorf("scenario %q: IP edge references unknown hub %q", s.Name, e.A)
		}
		if !hubNames[e.B] {
			return fmt.Errorf("scenario %q: IP edge references unknown hub %q", s.Name, e.B)
		}
		if e.Detour <= 0 {
			return fmt.Errorf("scenario %q: IP edge %s-%s: detour must be positive", s.Name, e.A, e.B)
		}
		hubAdj[e.A] = append(hubAdj[e.A], e.B)
		hubAdj[e.B] = append(hubAdj[e.B], e.A)
	}
	if len(p.Hubs) > 1 {
		seen := map[string]bool{p.Hubs[0].Name: true}
		queue := []string{p.Hubs[0].Name}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, next := range hubAdj[cur] {
				if !seen[next] {
					seen[next] = true
					queue = append(queue, next)
				}
			}
		}
		if len(seen) != len(p.Hubs) {
			return fmt.Errorf("scenario %q: IP hub trunk graph is disconnected (%d of %d hubs reachable)",
				s.Name, len(seen), len(p.Hubs))
		}
	}
	return nil
}
