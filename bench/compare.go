package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// runCompare prints, per workload and end-to-end metric, both reported
// values (medians; minima for the allocation counts), the ratio
// new/old, the old side's quartile distance as a share of its median,
// and a verdict by the metric's bound. It fails on any
// regression, on a changed simulated result, and on new failures.
func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two result files, got %d", len(args))
	}
	var files [2]resultFile
	for i, path := range args {
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(buf, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	old, cur := files[0], files[1]
	fmt.Printf("old: %s (%s, %s, nproc %d)\nnew: %s (%s, %s, nproc %d)\n",
		args[0], old.Host.GitRev, old.Host.GoVersion, old.Host.NumCPU,
		args[1], cur.Host.GitRev, cur.Host.GoVersion, cur.Host.NumCPU)

	regressions := 0
	for _, o := range old.Workloads {
		var n *workloadResult
		for i := range cur.Workloads {
			if cur.Workloads[i].Name == o.Name {
				n = &cur.Workloads[i]
			}
		}
		if n == nil || o.EndToEnd == nil || n.EndToEnd == nil {
			continue
		}
		fmt.Printf("\n== %s\n%-20s %-10s %14s %14s %18s %10s  %s\n", o.Name,
			"metric", "unit", "old", "new", "new/old", "old iqr", "verdict")
		for _, m := range endToEnd {
			oldS, newS := o.EndToEnd[m.Name], n.EndToEnd[m.Name]
			v := verdict(m, oldS, newS)
			if v == "regressed" {
				regressions++
			}
			ov, nv := reported(m, oldS), reported(m, newS)
			fmt.Printf("%-20s %-10s %14.6g %14.6g %8.4f of %-6.4g %9.2f%%  %s\n", m.Name, m.Unit,
				ov, nv, nv/ov, ov, 100*(oldS.Q3-oldS.Q1)/oldS.Median, v)
		}
		if o.Seed == n.Seed && o.Digest != n.Digest {
			fmt.Printf("simulated result changed: %s -> %s\n", o.Digest, n.Digest)
			regressions++
		}
		if share(float64(n.Failed), float64(n.Attempted)) > share(float64(o.Failed), float64(o.Attempted)) {
			fmt.Printf("failed operations rose: %d of %d -> %d of %d\n", o.Failed, o.Attempted, n.Failed, n.Attempted)
			regressions++
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s)", regressions)
	}
	return nil
}

// verdict applies the rule of the choosing-metrics guide: a metric
// whose run-to-run spread on the old side exceeds its bound is
// unresolved, unless every new run is on one side of every old run.
func verdict(m metricDef, old, cur summary) string {
	// worse > 0 when the new value is worse than the old.
	worse := (reported(m, cur) - reported(m, old)) / reported(m, old)
	if m.Better == "higher" {
		worse = -worse
	}
	// A reported minimum does not inherit the repetitions' spread.
	if !reportsMin[m.Name] && (old.Q3-old.Q1)/old.Median > m.Bound {
		lower, higher := cur.Max < old.Min, cur.Min > old.Max
		if m.Better == "higher" {
			lower, higher = higher, lower
		}
		switch {
		case lower && -worse > m.Bound:
			return "improved"
		case higher && worse > m.Bound:
			return "regressed"
		}
		return "unresolved"
	}
	switch {
	case worse > m.Bound:
		return "regressed"
	case -worse > m.Bound:
		return "improved"
	}
	return "unchanged"
}
