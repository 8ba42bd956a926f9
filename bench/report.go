package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// summary describes one end-to-end metric over a run's repetitions.
type summary struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Name      string `json:"name"`
	Seed      int64  `json:"seed"`
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	// Digest hashes the simulated result; Expected is the committed
	// digest for this seed, empty when there is none.
	Digest     string             `json:"digest"`
	Expected   string             `json:"expected,omitempty"`
	Reps       int                `json:"untraced_reps"`
	TracedReps int                `json:"traced_reps"`
	EndToEnd   map[string]summary `json:"end_to_end,omitempty"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
}

// resultFile is what -o writes and -compare reads.
type resultFile struct {
	Host      host             `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

// quantile interpolates linearly in sorted values, placing the q-th
// quantile at position q*(n+1) as Python's statistics.quantiles does.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	i := int(pos)
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

func summarizeValues(values []float64) summary {
	s := append([]float64{}, values...)
	sort.Float64s(s)
	return summary{
		Median: quantile(s, 0.5), Min: s[0], Q1: quantile(s, 0.25),
		Q3: quantile(s, 0.75), Max: s[len(s)-1], N: len(s), Values: values,
	}
}

// reported is the one value a run reports for an end-to-end metric.
func reported(m metricDef, s summary) float64 {
	if reportsMin[m.Name] {
		return s.Min
	}
	return s.Median
}

func median(values []float64) float64 {
	s := append([]float64{}, values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// endToEndValue reads one end-to-end metric off an untraced repetition.
func endToEndValue(name string, r *repResult) float64 {
	ops := float64(r.Ops)
	switch name {
	case "setup_s":
		return r.SetupS
	case "wall_s":
		return r.WallS
	case "cpu_s":
		return r.CPUS
	case "ops_per_s":
		return ops / r.WallS
	case "allocs_per_op":
		return float64(r.Mallocs) / ops
	case "alloc_bytes_per_op":
		return float64(r.AllocBytes) / ops
	case "peak_rss_mb":
		return r.PeakRSSMB
	}
	panic("bench: no end-to-end metric " + name)
}

// spanMetrics derives per-layer metrics from harness spans: the q-th
// quantile of (duration / N) over every span of that name in the
// traced repetitions, times scale.
var spanMetrics = []struct {
	metric, span string
	q, scale     float64
}{
	{"experiments.campaign_s", "experiments.RunCampaign", 0.5, 1e-9},
	{"experiments.figures_s", "experiments.Figures", 0.5, 1e-9},
	{"core.build_s", "core.Build", 0.5, 1e-9},
	{"traffic.new_s", "traffic.New", 0.5, 1e-9},
	{"simnet.run_s", "simnet.Run", 0.5, 1e-9},
	{"slayers.serialize_ns", "slayers.Serialize", 0.5, 1},
	{"slayers.decode_ns", "slayers.Decode", 0.5, 1},
	{"router.hop_ns_min_b1", "router.min_b1", 0.5, 1},
	{"router.hop_ns_min_b32", "router.min_b32", 0.5, 1},
	{"router.hop_ns_mtu_b32", "router.mtu_b32", 0.5, 1},
	{"core.converge_s", "experiments.ConvergeReference", 0.5, 1e-9},
	{"core.snapshot_write_ms", "core.Snapshot.WriteFile", 0.5, 1e-6},
	{"core.snapshot_load_ms", "core.LoadSnapshotFile", 0.5, 1e-6},
	{"core.clone_ms", "experiments.CloneReplica", 0.5, 1e-6},
	{"core.refresh_ms_p50", "core.SetLinkUp", 0.5, 1e-6},
	{"core.refresh_ms_p75", "core.SetLinkUp", 0.75, 1e-6},
	{"core.lookup_cold_us_p50", "core.Paths.cold", 0.5, 1e-3},
	{"core.lookup_cold_us_p99", "core.Paths.cold", 0.99, 1e-3},
	{"core.lookup_warm_ns", "core.Paths.warm", 0.5, 1},
	{"daemon.lookup_ms_p50", "daemon.PathsAsync", 0.5, 1e-6},
	{"daemon.lookup_ms_p75", "daemon.PathsAsync", 0.75, 1e-6},
}

// summarize folds a workload's repetitions into its result: the
// end-to-end metrics from the untraced ones and, if any were traced,
// the per-layer table from those.
func summarize(name string, seed int64, reps []*repResult) workloadResult {
	wr := workloadResult{Name: name, Seed: seed, Correct: true, Digest: reps[0].Digest}
	var untraced, traced []*repResult
	for _, r := range reps {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		if r.Traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	wr.Reps, wr.TracedReps = len(untraced), len(traced)

	if len(untraced) > 0 {
		wr.EndToEnd = map[string]summary{}
		for _, m := range endToEnd {
			values := make([]float64, len(untraced))
			for i, r := range untraced {
				values[i] = endToEndValue(m.Name, r)
			}
			wr.EndToEnd[m.Name] = summarizeValues(values)
		}
	}
	if len(traced) == 0 {
		return wr
	}

	pl := map[string]float64{}
	for _, m := range perLayer {
		pl[m.Name] = 0
	}
	var ops, profile float64
	busy := map[string]float64{}
	spans := map[string][]float64{}
	counts := map[string][]float64{}
	var tracedWall, untracedWall []float64
	for _, r := range traced {
		ops += float64(r.Ops)
		profile += float64(r.ProfileNS)
		for l, ns := range r.BusyNS {
			busy[l] += float64(ns)
		}
		for _, s := range r.Spans {
			spans[s.Name] = append(spans[s.Name], float64(s.End-s.Start)/float64(s.N))
		}
		for k, v := range r.Counts {
			counts[k] = append(counts[k], v)
		}
		tracedWall = append(tracedWall, r.WallS)
	}
	for _, r := range untraced {
		untracedWall = append(untracedWall, r.WallS)
	}
	for l, ns := range busy {
		pl[l+".busy_ns_per_op"] = ns / ops
	}
	if profile > 0 {
		pl["bench.attributed_share"] = 1 - busy["runtime_bg"]/profile
	}
	if len(untracedWall) > 0 {
		pl["bench.trace_overhead"] = median(tracedWall)/median(untracedWall) - 1
	}
	for k, v := range counts {
		pl[k] = median(v)
	}
	for _, sm := range spanMetrics {
		if v := spans[sm.span]; len(v) > 0 {
			sort.Float64s(v)
			pl[sm.metric] = quantile(v, sm.q) * sm.scale
		}
	}
	wr.PerLayer = pl
	return wr
}

// printWorkload prints every metric by name with its unit.
func printWorkload(w io.Writer, wr *workloadResult) {
	fmt.Fprintf(w, "\n== %s  seed %d  attempted %d  failed %d  digest %.12s", wr.Name, wr.Seed, wr.Attempted, wr.Failed, wr.Digest)
	switch {
	case wr.Expected == "":
		fmt.Fprintln(w, " (no committed digest for this seed)")
	case wr.Expected == wr.Digest:
		fmt.Fprintln(w, " (matches committed digest)")
	default:
		fmt.Fprintln(w, " (MISMATCH with committed digest)")
	}
	if wr.EndToEnd != nil {
		fmt.Fprintf(w, "%-34s %-10s %14s %14s %14s %14s %14s %14s %3s\n", "end-to-end metric", "unit", "reported", "median", "min", "q1", "q3", "max", "n")
		for _, m := range endToEnd {
			s := wr.EndToEnd[m.Name]
			fmt.Fprintf(w, "%-34s %-10s %14.6g %14.6g %14.6g %14.6g %14.6g %14.6g %3d\n", m.Name, m.Unit, reported(m, s), s.Median, s.Min, s.Q1, s.Q3, s.Max, s.N)
		}
	}
	if wr.PerLayer != nil {
		fmt.Fprintf(w, "%-34s %-10s %14s   (%d traced repetitions)\n", "per-layer metric", "unit", "value", wr.TracedReps)
		for _, m := range perLayer {
			fmt.Fprintf(w, "%-34s %-10s %14.6g\n", m.Name, m.Unit, wr.PerLayer[m.Name])
		}
	}
}

// printContractLine prints the one-object result line BENCHMARK.json's
// consumer reads: end-to-end metrics for an untraced run, per-layer
// metrics for a traced one.
func printContractLine(wr *workloadResult, trace int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if trace != 1 {
		for _, m := range endToEnd {
			metrics[m.Name] = value{reported(m, wr.EndToEnd[m.Name]), m.Unit}
		}
	}
	if trace != 0 {
		for _, m := range perLayer {
			metrics[m.Name] = value{wr.PerLayer[m.Name], m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", line)
	return err
}
