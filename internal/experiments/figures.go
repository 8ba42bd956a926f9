package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/core"
	"sciera/internal/multiping"
	"sciera/internal/scenario"
	"sciera/internal/stats"
	"sciera/internal/survey"
	"sciera/internal/topology"
)

// Table1 reproduces the PoP inventory.
func Table1(w io.Writer, s *scenario.Scenario) {
	section(w, "Table 1: SCIERA PoPs and collaborating networks")
	t := stats.Table{Header: []string{"Location", "Peering NRENs", "Partner Networks"}}
	for _, p := range s.PoPs {
		t.AddRow(p.Location, strings.Join(p.PeeringNRENs, "/"), strings.Join(p.PartnerNetworks, "/"))
	}
	fmt.Fprint(w, t.Render())
	if len(s.PoPs) == 0 {
		fmt.Fprintf(w, "(scenario %q declares no PoP inventory)\n", s.Name)
	}
}

// Figure1 renders the deployment topology as a table and a DOT graph.
func Figure1(w io.Writer, s *scenario.Scenario) error {
	section(w, "Figure 1: Topology overview of the SCIERA deployment")
	topo, err := s.Build()
	if err != nil {
		return err
	}
	t := stats.Table{Header: []string{"AS", "IA", "Role", "Region"}}
	for _, a := range s.ASes {
		role := "non-core"
		if a.Core {
			role = "CORE"
		}
		t.AddRow(a.Name, a.IA.String(), role, a.Region)
	}
	fmt.Fprint(w, t.Render())

	fmt.Fprintf(w, "\nLinks (%d circuits):\n", len(topo.Links()))
	lt := stats.Table{Header: []string{"Circuit", "Type", "Latency (ms)"}}
	for _, l := range topo.Links() {
		name := l.Name
		if name == "" {
			name = fmt.Sprintf("%v-%v", l.A.IA, l.B.IA)
		}
		lt.AddRow(name, l.Type.String(), fmt.Sprintf("%.1f", l.LatencyMS))
	}
	fmt.Fprint(w, lt.Render())

	fmt.Fprintln(w, "\nDOT rendering (pipe into graphviz):")
	fmt.Fprint(w, DOT(topo))
	return nil
}

// DOT renders a topology in graphviz format.
func DOT(topo *topology.Topology) string {
	var b strings.Builder
	b.WriteString("graph sciera {\n  overlap=false;\n")
	for _, as := range topo.ASes() {
		shape := "ellipse"
		if as.Core {
			shape = "box"
		}
		fmt.Fprintf(&b, "  %q [label=%q shape=%s];\n", as.IA.String(), as.Name+"\\n"+as.IA.String(), shape)
	}
	for _, l := range topo.Links() {
		style := "solid"
		if l.Type == topology.LinkParent {
			style = "dashed"
		}
		fmt.Fprintf(&b, "  %q -- %q [style=%s];\n", l.A.IA.String(), l.B.IA.String(), style)
	}
	b.WriteString("}\n")
	return b.String()
}

// Figure3 reproduces the deployment-effort timeline, and fits the
// learning-curve model DESIGN.md calls out: repeat deployments of the
// same kind get cheaper as automation and experience accumulate.
func Figure3(w io.Writer, s *scenario.Scenario) {
	section(w, "Figure 3: SCIERA deployment and estimated effort over time")
	type dated struct {
		as     scenario.AS
		joined time.Time
	}
	var sites []dated
	for _, a := range s.ASes {
		if t, ok := a.JoinedTime(); ok {
			sites = append(sites, dated{a, t})
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].joined.Before(sites[j].joined) })

	base := map[string]float64{}
	count := map[string]int{}
	// Base costs fitted to the first occurrence of each kind.
	for _, d := range sites {
		if _, ok := base[d.as.Kind]; !ok {
			base[d.as.Kind] = d.as.Effort
		}
	}

	t := stats.Table{Header: []string{"Date", "AS", "Kind", "Reported effort", "Model"}}
	var reported, modeled []float64
	for _, d := range sites {
		// Learning curve: effort decays 25% per prior same-kind
		// deployment, floored at 20% of the initial cost.
		k := count[d.as.Kind]
		model := base[d.as.Kind] * math.Max(0.2, math.Pow(0.75, float64(k)))
		count[d.as.Kind]++
		reported = append(reported, d.as.Effort)
		modeled = append(modeled, model)
		t.AddRow(d.joined.Format("2006-01"), d.as.Name, d.as.Kind,
			fmt.Sprintf("%.1f", d.as.Effort), fmt.Sprintf("%.1f", model))
	}
	fmt.Fprint(w, t.Render())
	if len(reported) == 0 {
		fmt.Fprintf(w, "(scenario %q declares no deployment timeline)\n", s.Name)
		return
	}

	// Trend check: efforts of the second half are lower than the first
	// (the paper's "subsequent deployments were simplified").
	half := len(reported) / 2
	avg := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	fmt.Fprintf(w, "\nmean reported effort: first half %.2f, second half %.2f (paper: declining)\n",
		avg(reported[:half]), avg(reported[half:]))
	fmt.Fprintf(w, "model/reported correlation over %d deployments\n", len(reported))
}

// Figure5 prints the SCION vs IP ping RTT CDFs with the paper's
// headline statistics.
func Figure5(w io.Writer, ds *multiping.Dataset) {
	section(w, "Figure 5: CDF of ping latency for SCION and IP")
	scion, ip := ds.PingCDFs()
	renderCDF(w, "SCION RTT (ms)", scion, 11)
	fmt.Fprintln(w)
	renderCDF(w, "IP RTT (ms)", ip, 11)

	sm, im := scion.Median(), ip.Median()
	s90, i90 := scion.Percentile(90), ip.Percentile(90)
	fmt.Fprintf(w, "\nmedian: SCION %.1f ms vs IP %.1f ms (%.1f%% reduction; paper: 149.8 vs 160.9, 6.9%%)\n",
		sm, im, 100*(im-sm)/im)
	fmt.Fprintf(w, "p90:    SCION %.1f ms vs IP %.1f ms (%.1f%% reduction; paper: 287 vs 376, 23.7%%)\n",
		s90, i90, 100*(i90-s90)/i90)
}

// Figure6 prints the per-pair RTT-ratio CDF with the paper's thresholds.
func Figure6(w io.Writer, s *scenario.Scenario, ds *multiping.Dataset) {
	section(w, "Figure 6: CDF of the RTT ratio of SCION compared to IP")
	ratios := ds.PairRatios()
	c := &stats.CDF{}
	type outlier struct {
		pair  multiping.Pair
		ratio float64
	}
	var outliers []outlier
	for p, r := range ratios {
		c.Add(r)
		if r > 1.6 {
			outliers = append(outliers, outlier{p, r})
		}
	}
	renderCDF(w, "SCION/IP RTT ratio per AS pair", c, 11)
	fmt.Fprintf(w, "\npairs with SCION faster (ratio < 1.0): %.0f%% (paper: ~38%%)\n",
		100*c.FractionBelow(1.0))
	fmt.Fprintf(w, "pairs with <25%% inflation (ratio < 1.25): %.0f%% (paper: ~80%%)\n",
		100*c.FractionBelow(1.25))
	// Outliers were collected in map-iteration order; ties on the ratio
	// (symmetric pairs have exactly equal ones) need the pair itself as
	// a tiebreak or the listing is nondeterministic.
	sort.Slice(outliers, func(i, j int) bool {
		a, b := outliers[i], outliers[j]
		if a.ratio != b.ratio {
			return a.ratio > b.ratio
		}
		if a.pair.Src != b.pair.Src {
			return a.pair.Src < b.pair.Src
		}
		return a.pair.Dst < b.pair.Dst
	})
	fmt.Fprintln(w, "\noutliers (paper attributes these to the KREONET cable cut, BRIDGES")
	fmt.Fprintln(w, "instabilities, and the UFMS-Equinix detour via GEANT):")
	for _, o := range outliers {
		srcName, dstName := s.ASName(o.pair.Src), s.ASName(o.pair.Dst)
		fmt.Fprintf(w, "  %s -> %s: ratio %.2f\n", srcName, dstName, o.ratio)
	}
}

// Figure7 prints the ratio-over-time series with the incident markers.
func Figure7(w io.Writer, s *scenario.Scenario, ds *multiping.Dataset) {
	section(w, "Figure 7: RTT ratio of SCION compared to IP over time")
	t := stats.Table{Header: []string{"day", "mean SCION/IP ratio", "samples"}}
	for _, b := range ds.RatioOverTime(24 * time.Hour) {
		t.AddRow(fmt.Sprintf("%.0f", b.Start/86400), fmt.Sprintf("%.3f", b.Mean),
			fmt.Sprintf("%d", b.Count))
	}
	fmt.Fprint(w, t.Render())
	fmt.Fprintln(w, "\nincident calendar replayed during the campaign:")
	for _, inc := range s.Incidents {
		fmt.Fprintf(w, "  day %4.1f + %5.1fh: %s\n",
			inc.Start().Hours()/24, inc.Duration().Hours(), inc.Name)
	}
	for _, nl := range s.NewLinks {
		fmt.Fprintf(w, "  day %4.1f: new circuit %q activated\n", nl.Activate().Hours()/24, nl.Name)
	}
}

// Figure8 prints the maximum-active-paths heatmap over the scenario's
// heatmap AS set (the paper's nine ASes for SCIERA).
func Figure8(w io.Writer, s *scenario.Scenario, ds *multiping.Dataset) {
	section(w, "Figure 8: Maximum number of active paths between AS pairs")
	renderMatrix(w, s.Heatmap, ds.MaxActivePaths(), func(p multiping.Pair, m map[multiping.Pair]int) string {
		if v, ok := m[p]; ok {
			return fmt.Sprintf("%d", v)
		}
		return "-"
	})
	fmt.Fprintln(w, "\npaper: minimum 2, maximum 113 (UVa to UFMS)")
}

// Figure9 prints the median deviation from the maximum path count.
func Figure9(w io.Writer, s *scenario.Scenario, ds *multiping.Dataset, campaign, interval time.Duration) {
	section(w, "Figure 9: Median deviation from the highest number of active paths")
	dev := ds.MedianPathDeviation(campaign, interval)
	renderMatrix(w, s.Heatmap, dev, func(p multiping.Pair, m map[multiping.Pair]int) string {
		if v, ok := m[p]; ok {
			return fmt.Sprintf("%d", v)
		}
		return "-"
	})
	fmt.Fprintln(w, "\npaper: mostly 0; large deviations only for the cable-cut pair")
	fmt.Fprintln(w, "(Daejeon-Singapore) and the BRIDGES-affected UVa-Equinix pair")
}

// renderMatrix prints a pair-indexed matrix over the heatmap AS set.
func renderMatrix(w io.Writer, ases []addr.IA, m map[multiping.Pair]int, cell func(multiping.Pair, map[multiping.Pair]int) string) {
	hdr := []string{"src\\dst"}
	for _, d := range ases {
		hdr = append(hdr, d.String())
	}
	t := stats.Table{Header: hdr}
	for _, s := range ases {
		row := []string{s.String()}
		for _, d := range ases {
			if s == d {
				row = append(row, ".")
				continue
			}
			row = append(row, cell(multiping.Pair{Src: s, Dst: d}, m))
		}
		t.AddRow(row...)
	}
	fmt.Fprint(w, t.Render())
}

// Figure10a prints the latency-inflation CDF.
func Figure10a(w io.Writer, ds *multiping.Dataset) {
	section(w, "Figure 10a: CDF of path latency inflation (d2/d1)")
	c := ds.LatencyInflation()
	renderCDF(w, "second-best / best RTT", c, 11)
	fmt.Fprintf(w, "\nintervals with inflation ~1.0 (<1.02): %.0f%% (paper: ~40%% at 1.0)\n",
		100*c.FractionBelow(1.02))
	fmt.Fprintf(w, "intervals with inflation < 1.2: %.0f%% (paper: ~80%%)\n",
		100*c.FractionBelow(1.2))
}

// Figure10b computes the pairwise path-disjointness CDF for every
// vantage pair. Per pair, the 16 most mutually diverse paths are
// sampled (greedy max-min disjointness selection) before forming
// combinations: the enumerated path set contains many near-duplicate
// VLAN variants whose O(N²) combinations would otherwise drown the
// distribution in almost-identical pairs.
func Figure10b(w io.Writer, s *scenario.Scenario, n *core.Network) {
	section(w, "Figure 10b: CDF of path disjointness for all AS pairs")
	c := &stats.CDF{}
	fully := 0
	total := 0
	vantage := s.Vantage
	for _, src := range vantage {
		for _, dst := range vantage {
			if src == dst {
				continue
			}
			paths := combinator.DiverseSubset(n.Paths(src, dst), 16)
			for i := 0; i < len(paths); i++ {
				for j := i + 1; j < len(paths); j++ {
					d := combinator.Disjointness(paths[i], paths[j])
					c.Add(d)
					total++
					if d >= 0.9999 {
						fully++
					}
				}
			}
		}
	}
	renderCDF(w, "pairwise path disjointness", c, 11)
	fmt.Fprintf(w, "\nfully disjoint combinations: %.0f%% (paper: ~30%%)\n",
		100*float64(fully)/float64(total))
	fmt.Fprintf(w, "combinations with disjointness >= 0.7: %.0f%% (paper: ~80%%)\n",
		100*(1-c.FractionBelow(0.7)))
}

// SurveyTable prints the Section 5.6 aggregation.
func SurveyTable(w io.Writer) {
	section(w, "Section 5.6: Operator survey")
	fmt.Fprint(w, survey.Compute(survey.Responses()).Render())
}
