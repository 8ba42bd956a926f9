package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"slices"

	"sciera/internal/addr"
	"sciera/internal/bootstrap"
	"sciera/internal/stats"
	"sciera/internal/topology"
)

// Figure10c runs the link-failure resilience simulation: in each of 100
// runs, links are removed one at a time in random order; after each
// removal the fraction of AS pairs that still have connectivity is
// recorded — once for multipath (any route) and once for single-path
// routing (only the initially selected shortest path, which dies with
// its first removed link).
func Figure10c(w io.Writer, cfg Config) error {
	section(w, "Figure 10c: Impact of link failures on AS connectivity")
	runs := 100
	if cfg.Quick {
		runs = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Pair set: all AS pairs of the deployment. The topology is only
	// read: a removed link is one the run's removed set names.
	topo, err := cfg.scn().Build()
	if err != nil {
		return err
	}
	links := topo.Links()
	singles := singlePaths(topo)
	nASes := len(topo.ASes())
	total := nASes * (nASes - 1) / 2
	// Sample the removal fractions at 10% steps.
	steps := 10
	multi := make([]float64, steps+1)
	single := make([]float64, steps+1)

	for run := 0; run < runs; run++ {
		perm := rng.Perm(len(links))
		removed := make([]bool, len(links)) // by link ID
		gone := 0
		for step := 0; step <= steps; step++ {
			for ; gone < step*len(links)/steps; gone++ {
				removed[perm[gone]] = true
			}
			okSingle := 0
			for _, path := range singles {
				if !slices.ContainsFunc(path, func(id int) bool { return removed[id] }) {
					okSingle++
				}
			}
			multi[step] += float64(connectedPairs(links, removed)) / float64(total)
			single[step] += float64(okSingle) / float64(total)
		}
	}

	t := stats.Table{Header: []string{"links removed (%)", "multipath connectivity (%)", "single-path connectivity (%)"}}
	for step := 0; step <= steps; step++ {
		t.AddRow(fmt.Sprintf("%d", step*10),
			fmt.Sprintf("%.0f", 100*multi[step]/float64(runs)),
			fmt.Sprintf("%.0f", 100*single[step]/float64(runs)))
	}
	fmt.Fprint(w, t.Render())
	fmt.Fprintf(w, "\npaper: at 20%% removed links, ~90%% of pairs keep connectivity with\n")
	fmt.Fprintf(w, "multipath but only ~50%% with a single path\n")
	return nil
}

// singlePaths returns, for every AS pair with a route on the topology as
// it stands, the link IDs of the pair's single path: the route
// ShortestRoute(a, b, LatencyWeight) picks for a < b, read off one
// shortest-path tree per source instead of one search per pair.
func singlePaths(topo *topology.Topology) [][]int {
	ases := topo.ASes()
	var out [][]int
	for i, a := range ases {
		tree := topo.ShortestTree(a.IA, topology.LatencyWeight)
		for _, b := range ases[i+1:] {
			var path []int
			for at := b.IA; tree[at] != nil; {
				l := tree[at]
				path = append(path, l.ID)
				prev, _ := l.Other(at)
				at = prev.IA
			}
			if path != nil {
				out = append(out, path)
			}
		}
	}
	return out
}

// connectedPairs counts the AS pairs joined by links that are up and not
// removed: one union-find labelling of the components, then every
// component of n ASes holds n(n-1)/2 connected pairs.
func connectedPairs(links []*topology.Link, removed []bool) int {
	root := make(map[addr.IA]addr.IA)
	var find func(addr.IA) addr.IA
	find = func(ia addr.IA) addr.IA {
		if p, ok := root[ia]; ok && p != ia {
			root[ia] = find(p)
			return root[ia]
		}
		return ia
	}
	for _, l := range links {
		if l.Up() && !removed[l.ID] {
			a, b := find(l.A.IA), find(l.B.IA)
			root[a], root[b] = b, b
		}
	}
	size := make(map[addr.IA]int)
	for ia := range root {
		size[find(ia)]++
	}
	pairs := 0
	for _, n := range size {
		pairs += n * (n - 1) / 2
	}
	return pairs
}

// Table2 reproduces the Appendix A hinting-mechanism availability
// matrix by evaluating the bootstrap client's requirements against
// canonical network configurations.
func Table2(w io.Writer) {
	section(w, "Table 2 (Appendix A): Hinting mechanisms vs network technologies")

	type netEnv struct {
		name string
		// Capabilities of the network.
		staticIPv4Only bool
		dhcpLeases     bool
		dhcpv6Lease    bool
		ipv6RAs        bool
		dnsSearch      bool
	}
	envs := []netEnv{
		{name: "Static IPs only", staticIPv4Only: true},
		{name: "dyn. DHCP leases", dhcpLeases: true},
		{name: "dyn. DHCPv6 lease", dhcpv6Lease: true},
		{name: "IPv6 RAs", ipv6RAs: true},
		{name: "local DNS search domain", dnsSearch: true},
	}

	// availability returns "Y" (works alone), "M" (works in combination
	// with another mechanism supplying DNS config), or "N".
	availability := func(m bootstrap.Mechanism, e netEnv) string {
		switch m {
		case bootstrap.MechDHCPVIVO, bootstrap.MechDHCPOption72:
			if e.dhcpLeases {
				return "Y"
			}
			return "N"
		case bootstrap.MechDHCPv6VSIO:
			if e.dhcpv6Lease {
				return "Y"
			}
			return "N"
		case bootstrap.MechNDP:
			switch {
			case e.ipv6RAs:
				return "Y"
			case e.staticIPv4Only:
				return "N"
			case e.dnsSearch:
				return "Y" // RA-provided resolver or existing DNS both work
			default:
				return "M"
			}
		case bootstrap.MechDNSSRV, bootstrap.MechDNSNAPTR, bootstrap.MechDNSSD:
			switch {
			case e.dnsSearch || e.ipv6RAs:
				return "Y"
			case e.staticIPv4Only:
				return "N"
			default:
				return "M" // needs DHCP/RA to learn the resolver
			}
		case bootstrap.MechMDNS:
			if e.dnsSearch || e.ipv6RAs {
				return "Y"
			}
			if e.staticIPv4Only {
				return "Y" // multicast needs no configuration at all
			}
			return "M"
		}
		return "?"
	}

	hdr := []string{"Mechanism"}
	for _, e := range envs {
		hdr = append(hdr, e.name)
	}
	t := stats.Table{Header: hdr}
	for _, m := range bootstrap.AllMechanisms() {
		row := []string{m.String()}
		for _, e := range envs {
			row = append(row, availability(m, e))
		}
		t.AddRow(row...)
	}
	fmt.Fprint(w, t.Render())
	fmt.Fprintln(w, "\nY = available, M = available combined with another mechanism, N = unavailable")
}
