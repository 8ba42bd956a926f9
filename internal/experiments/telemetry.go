package experiments

import (
	"fmt"
	"io"
	"os"
	"sort"

	"sciera/internal/stats"
	"sciera/internal/telemetry"
)

// LoadTelemetry reads a -telemetry-dump JSON file written by
// cmd/sciera, cmd/multiping or cmd/experiments.
func LoadTelemetry(path string) (telemetry.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	defer f.Close()
	return telemetry.ReadSnapshot(f)
}

// TelemetryReport renders an operator-style digest of one or more
// telemetry snapshots: data-plane totals, control-plane activity,
// end-host behaviour and the sampled trace ring. Several snapshots
// (one per node, per campaign shard) aggregate by summing counters and
// merging histograms, the same pooling contract stats.CDF.Merge obeys.
func TelemetryReport(w io.Writer, snaps ...telemetry.Snapshot) {
	section(w, "Telemetry report")
	total := func(name string) float64 {
		var s float64
		for _, sn := range snaps {
			s += sn.Total(name)
		}
		return s
	}

	tb := stats.Table{Header: []string{"subsystem", "metric", "value"}}
	row := func(sub, metric string, v float64) {
		if v != 0 {
			tb.AddRow(sub, metric, fmt.Sprintf("%.0f", v))
		}
	}
	row("router", "forwarded", total("sciera_router_forwarded_total"))
	row("router", "delivered locally", total("sciera_router_delivered_total"))
	row("router", "dropped", total("sciera_router_noroute_drops_total")+
		total("sciera_router_linkdown_drops_total")+
		total("sciera_router_ingress_drops_total"))
	row("router", "MAC failures", total("sciera_router_mac_failures_total"))
	row("dispatcher", "demux hits", total("sciera_dispatcher_demux_hits_total"))
	row("dispatcher", "demux misses", total("sciera_dispatcher_demux_misses_total"))
	row("beacon", "originated", total("sciera_beacon_originated_total"))
	row("beacon", "propagated", total("sciera_beacon_propagated_total"))
	row("beacon", "filtered", total("sciera_beacon_filtered_total"))
	row("beacon", "segments registered", total("sciera_beacon_registered_total"))
	row("beacon", "built", total("sciera_beacon_built_total"))
	row("beacon", "reused from the previous refresh", total("sciera_beacon_reused_total"))
	row("beacon", "candidates re-decided", total("sciera_beacon_redecided_total"))
	row("daemon", "path lookups", total("sciera_daemon_lookups_total"))
	row("daemon", "cache hits", total("sciera_daemon_cache_hits_total"))
	row("simnet", "delivered", total("sciera_simnet_delivered_total"))
	row("simnet", "dropped", total("sciera_simnet_dropped_total"))
	row("multiping", "probes", total("sciera_multiping_probes_total"))
	row("multiping", "losses", total("sciera_multiping_lost_total"))
	fmt.Fprint(w, tb.Render())

	if lookups := total("sciera_daemon_lookups_total"); lookups > 0 {
		fmt.Fprintf(w, "\ndaemon cache hit rate: %.1f%%\n",
			100*total("sciera_daemon_cache_hits_total")/lookups)
	}

	// Histogram families pool across snapshots via HistogramSnapshot.Merge.
	reportHistogram(w, snaps, "sciera_link_queue_delay_ms", "link queue delay")
	reportHistogram(w, snaps, "sciera_multiping_rtt_ms", "multiping RTT")

	reportTrace(w, snaps)
}

// reportHistogram prints pooled quantiles for one histogram family.
func reportHistogram(w io.Writer, snaps []telemetry.Snapshot, family, title string) {
	var pooled telemetry.HistogramSnapshot
	found := false
	for _, sn := range snaps {
		h, ok := sn.Histogram(family)
		if !ok {
			continue
		}
		if !found {
			pooled, found = h, true
			continue
		}
		if err := pooled.Merge(h); err != nil {
			fmt.Fprintf(w, "\n%s: incompatible buckets across snapshots (%v)\n", title, err)
			return
		}
	}
	if !found || pooled.Count == 0 {
		return
	}
	fmt.Fprintf(w, "\n%s (%d observations, ms): p50 %.2f  p90 %.2f  p99 %.2f  mean %.2f\n",
		title, pooled.Count, pooled.Quantile(0.5), pooled.Quantile(0.9),
		pooled.Quantile(0.99), pooled.Mean())
}

// reportTrace summarizes the sampled packet traces by verdict.
func reportTrace(w io.Writer, snaps []telemetry.Snapshot) {
	byVerdict := make(map[string]int)
	n := 0
	for _, sn := range snaps {
		for _, e := range sn.Trace {
			byVerdict[e.Verdict.String()]++
			n++
		}
	}
	if n == 0 {
		return
	}
	verdicts := make([]string, 0, len(byVerdict))
	for v := range byVerdict {
		verdicts = append(verdicts, v)
	}
	sort.Strings(verdicts)
	fmt.Fprintf(w, "\npacket trace ring: %d sampled entries\n", n)
	for _, v := range verdicts {
		fmt.Fprintf(w, "  %-12s %d\n", v, byVerdict[v])
	}
}
