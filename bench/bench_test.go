package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"
)

// smokeScale shrinks every workload to about a fiftieth of its size.
const smokeScale = 50

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// and workload tables of this package in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, table has %q", i, b.Workloads[i].Name, w.name)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\ntable %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\ntable %+v", b.PerLayer, perLayer)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q is not well formed", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestWorkloadsSmoke runs every workload twice in-process at reduced
// scale, once traced and once not, and checks that the two agree on the
// simulated result and every exact count, that no operation fails, and
// that the summary carries every metric of the tables exactly once.
func TestWorkloadsSmoke(t *testing.T) {
	inexact := map[string]bool{
		"simnet.events_per_s": true, "runtime.gc_cycles": true, "runtime.gc_pause_ms": true,
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			plain, err := runRep(w, 42, smokeScale, 0, false, "")
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runRep(w, 42, smokeScale, 1, true, "")
			if err != nil {
				t.Fatal(err)
			}
			if plain.Digest == "" || plain.Digest != traced.Digest {
				t.Errorf("digests differ: %q vs %q", plain.Digest, traced.Digest)
			}
			if plain.Failed != 0 || plain.Attempted == 0 {
				t.Errorf("attempted %d, failed %d", plain.Attempted, plain.Failed)
			}
			if plain.Ops != traced.Ops {
				t.Errorf("ops differ: %d vs %d", plain.Ops, traced.Ops)
			}
			for k, v := range plain.Counts {
				if !inexact[k] && traced.Counts[k] != v {
					t.Errorf("count %s differs between runs: %v vs %v", k, v, traced.Counts[k])
				}
			}
			var sum int64
			for _, ns := range traced.BusyNS {
				sum += ns
			}
			if sum != traced.ProfileNS {
				t.Errorf("per-layer profile time sums to %d, profile total %d", sum, traced.ProfileNS)
			}

			wr := summarize(w.name, 42, []*repResult{plain, traced})
			if len(wr.EndToEnd) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics, want %d", len(wr.EndToEnd), len(endToEnd))
			}
			for _, m := range endToEnd {
				if s, ok := wr.EndToEnd[m.Name]; !ok || s.Median <= 0 {
					t.Errorf("end-to-end metric %s missing or not positive: %+v", m.Name, s)
				}
			}
			if len(wr.PerLayer) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(wr.PerLayer), len(perLayer))
			}
			for _, m := range perLayer {
				if _, ok := wr.PerLayer[m.Name]; !ok {
					t.Errorf("per-layer metric %s missing", m.Name)
				}
			}
			for k := range plain.Counts {
				if _, ok := wr.PerLayer[k]; !ok {
					t.Errorf("count %s is not a per-layer metric", k)
				}
			}
		})
	}
}

// TestAttributeProfile feeds the parser a profile it just recorded: the
// per-layer times must add up to the profile's total, and a stack that
// passes through a repository package must be charged to it.
func TestAttributeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	w, err := findWorkload("forward-chain")
	if err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		if _, err := runRep(w, 1, smokeScale, 0, false, ""); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	busy, total, err := attributeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, ns := range busy {
		sum += ns
	}
	if total == 0 || sum != total {
		t.Errorf("layers sum to %d ns, profile total %d ns", sum, total)
	}
	if busy["simnet"]+busy["router"]+busy["slayers"] == 0 {
		t.Errorf("no time charged to the forwarding layers: %v", busy)
	}

	for fn, want := range map[string]string{
		"sciera/internal/simnet.(*Sim).Step":       "simnet",
		"sciera/internal/combinator.Combine.func1": "combinator",
		"sciera/internal/addr.IA.String":           "other",
		"main.setupChain.func3":                    "other",
		"runtime.mallocgc":                         "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := func(m float64) summary {
		return summarizeValues([]float64{m * 0.99, m, m * 1.01})
	}
	wide := func(m float64) summary {
		return summarizeValues([]float64{m * 0.8, m, m * 1.2})
	}
	for _, c := range []struct {
		m        metricDef
		old, cur summary
		want     string
	}{
		{lower, tight(1), tight(1.05), "unchanged"},
		{lower, tight(1), tight(1.2), "regressed"},
		{lower, tight(1), tight(0.8), "improved"},
		{higher, tight(1), tight(0.8), "regressed"},
		{higher, tight(1), tight(1.2), "improved"},
		{lower, wide(1), tight(1.15), "unresolved"},
		{lower, wide(1), tight(2), "regressed"},
		{lower, wide(1), tight(0.5), "improved"},
	} {
		if got := verdict(c.m, c.old, c.cur); got != c.want {
			t.Errorf("%s old %.2f new %.2f: %s, want %s", c.m.Name, c.old.Median, c.cur.Median, got, c.want)
		}
	}
}
