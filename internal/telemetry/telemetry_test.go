package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Errorf("counter = %d, want 42", c.Load())
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if g.Load() != 4 {
		t.Errorf("gauge = %d, want 4", g.Load())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", L("ia", "71-1"))
	b := r.Counter("x_total", "help", L("ia", "71-1"))
	if a != b {
		t.Error("same (name, labels) resolved to different cells")
	}
	c := r.Counter("x_total", "", L("ia", "71-2"))
	if a == c {
		t.Error("different labels resolved to the same cell")
	}
	// Label order must not matter.
	d1 := r.Counter("y_total", "", L("a", "1"), L("b", "2"))
	d2 := r.Counter("y_total", "", L("b", "2"), L("a", "1"))
	if d1 != d2 {
		t.Error("label order changed series identity")
	}
}

func TestRegistryAdoptExisting(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(5)
	if !r.RegisterCounter("adopted_total", "h", &c) {
		t.Fatal("first registration refused")
	}
	if r.RegisterCounter("adopted_total", "h", new(Counter)) {
		t.Error("duplicate registration accepted")
	}
	if v, ok := r.Snapshot().Value("adopted_total"); !ok || v != 5 {
		t.Errorf("snapshot value = %v, %v", v, ok)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on kind mismatch")
		}
	}()
	r := NewRegistry()
	r.Counter("m", "")
	r.Gauge("m", "")
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram(10, 20, 30)
	for _, v := range []float64{5, 15, 15, 25, 99} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 159 {
		t.Errorf("sum = %g", h.Sum())
	}
	s := h.Snapshot()
	want := []uint64{1, 2, 1, 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	med := s.Quantile(0.5)
	if med < 10 || med > 20 {
		t.Errorf("median %g outside its bucket", med)
	}
	if !math.IsNaN(NewHistogram(1).Snapshot().Quantile(0.5)) {
		t.Error("empty histogram quantile not NaN")
	}
}

func TestHistogramMergeEqualsPooling(t *testing.T) {
	// Property: merging histograms == histogram of pooled samples.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		bounds := []float64{5, 25, 50, 100, 250}
		a, b, pooled := NewHistogram(bounds...), NewHistogram(bounds...), NewHistogram(bounds...)
		for i := 0; i < rng.Intn(200); i++ {
			v := rng.Float64() * 300
			a.Observe(v)
			pooled.Observe(v)
		}
		for i := 0; i < rng.Intn(200); i++ {
			v := rng.Float64() * 300
			b.Observe(v)
			pooled.Observe(v)
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		sa, sp := a.Snapshot(), pooled.Snapshot()
		if sa.Count != sp.Count || math.Abs(sa.Sum-sp.Sum) > 1e-9 {
			t.Fatalf("trial %d: merged count/sum %d/%g vs pooled %d/%g", trial, sa.Count, sa.Sum, sp.Count, sp.Sum)
		}
		for i := range sa.Counts {
			if sa.Counts[i] != sp.Counts[i] {
				t.Fatalf("trial %d bucket %d: merged %d vs pooled %d", trial, i, sa.Counts[i], sp.Counts[i])
			}
		}
	}
}

func TestHistogramMergeBoundsMismatch(t *testing.T) {
	if err := NewHistogram(1, 2).Merge(NewHistogram(1, 3)); err == nil {
		t.Error("merge with different bounds accepted")
	}
	if err := NewHistogram(1, 2).Merge(NewHistogram(1)); err == nil {
		t.Error("merge with different bucket counts accepted")
	}
}

func TestTraceRingSampling(t *testing.T) {
	ring := NewTraceRing(8, 4)
	recorded := 0
	for i := 0; i < 64; i++ {
		if ring.Sample() {
			ring.Record(TraceEntry{TimeNS: int64(i)})
			recorded++
		}
	}
	if recorded != 16 {
		t.Errorf("sampled %d of 64 at 1/4", recorded)
	}
	seen, sampled := ring.Stats()
	if seen != 64 || sampled != 16 {
		t.Errorf("stats = %d seen, %d sampled", seen, sampled)
	}
	if ring.Len() != 8 {
		t.Errorf("ring len = %d, want 8 (full)", ring.Len())
	}
	snap := ring.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	// Oldest-first: the last 8 sampled ticks are 32,36,...,60.
	for i, e := range snap {
		if want := int64(32 + 4*i); e.TimeNS != want {
			t.Errorf("snapshot[%d].TimeNS = %d, want %d", i, e.TimeNS, want)
		}
	}
}

// TestTraceRingSampleN holds SampleN(n) to n calls of Sample: over runs
// of every length from any clock phase, the same count sampled and the
// same clock after.
func TestTraceRingSampleN(t *testing.T) {
	for _, every := range []int{1, 2, 4, 8} {
		runs, singles := NewTraceRing(1, every), NewTraceRing(1, every)
		for n := 0; n < 20; n++ {
			want := 0
			for i := 0; i < n; i++ {
				if singles.Sample() {
					want++
				}
			}
			if got := runs.SampleN(n); got != want {
				t.Fatalf("every %d, run of %d: SampleN = %d, %d calls of Sample traced %d", every, n, got, n, want)
			}
		}
		if a, _ := runs.Stats(); a != 190 {
			t.Errorf("every %d: clock at %d after 190 packets", every, a)
		}
	}
	if (*TraceRing)(nil).SampleN(5) != 0 {
		t.Error("nil ring sampled")
	}
}

func TestTraceRingNilSafe(t *testing.T) {
	var ring *TraceRing
	if ring.Sample() {
		t.Error("nil ring sampled")
	}
	ring.Record(TraceEntry{})
	if ring.Len() != 0 || ring.Snapshot() != nil {
		t.Error("nil ring holds entries")
	}
}

func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_ms", "", []float64{1, 10, 100})
	ring := NewTraceRing(16, 2)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(1)
		h.Observe(7.5)
		if ring.Sample() {
			ring.Record(TraceEntry{Verdict: VerdictForwarded})
		}
	}); n != 0 {
		t.Errorf("hot-path instruments allocate %.1f allocs/op", n)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "", []float64{10, 20})
	ring := NewTraceRing(32, 1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 30))
				if ring.Sample() {
					ring.Record(TraceEntry{TimeNS: int64(j)})
				}
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Errorf("counter = %d", c.Load())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d", h.Count())
	}
	if _, sampled := ring.Stats(); sampled != 8000 {
		t.Errorf("ring sampled = %d", sampled)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("sciera_router_forwarded_total", "packets forwarded", L("ia", "71-2")).Add(3)
	r.Counter("sciera_router_forwarded_total", "packets forwarded", L("ia", "71-1")).Add(9)
	r.Gauge("sciera_simnet_inflight", "in-flight datagrams").Set(5)
	h := r.Histogram("sciera_rtt_ms", "rtt", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE sciera_router_forwarded_total counter",
		`sciera_router_forwarded_total{ia="71-1"} 9`,
		`sciera_router_forwarded_total{ia="71-2"} 3`,
		"# TYPE sciera_simnet_inflight gauge",
		"sciera_simnet_inflight 5",
		"# TYPE sciera_rtt_ms histogram",
		`sciera_rtt_ms_bucket{le="10"} 1`,
		`sciera_rtt_ms_bucket{le="100"} 2`,
		`sciera_rtt_ms_bucket{le="+Inf"} 3`,
		"sciera_rtt_ms_sum 555",
		"sciera_rtt_ms_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families sorted by name, series by label set.
	i1 := strings.Index(out, `{ia="71-1"}`)
	i2 := strings.Index(out, `{ia="71-2"}`)
	if i1 > i2 {
		t.Error("series not sorted by label set")
	}
	var names []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			names = append(names, strings.Fields(line)[2])
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("families not sorted: %v", names)
	}
}

func TestSnapshotHelpers(t *testing.T) {
	r := NewRegistry()
	r.Counter("f_total", "", L("ia", "a")).Add(2)
	r.Counter("f_total", "", L("ia", "b")).Add(3)
	r.Histogram("h_ms", "", []float64{10, 100}, L("ia", "a")).Observe(5)
	r.Histogram("h_ms", "", []float64{10, 100}, L("ia", "b")).Observe(50)
	snap := r.Snapshot()
	if got := snap.Total("f_total"); got != 5 {
		t.Errorf("Total = %g", got)
	}
	if v, ok := snap.Value("f_total", L("ia", "b")); !ok || v != 3 {
		t.Errorf("Value = %g, %v", v, ok)
	}
	merged, ok := snap.Histogram("h_ms")
	if !ok || merged.Count != 2 {
		t.Errorf("merged histogram count = %d, ok=%v", merged.Count, ok)
	}
	one, ok := snap.Histogram("h_ms", L("ia", "a"))
	if !ok || one.Count != 1 {
		t.Errorf("filtered histogram count = %d, ok=%v", one.Count, ok)
	}
	var b strings.Builder
	if err := snap.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"f_total"`) {
		t.Error("JSON dump missing family")
	}
}
