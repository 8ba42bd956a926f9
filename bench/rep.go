package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// span is one harness-side interval around a call into a layer. N is
// the number of operations the interval covers (a span metric reads
// duration / N). Parent indexes the enclosing span of the same
// repetition (-1 at the root); Run is the repetition.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	N      int    `json:"n"`
}

// tracer keeps spans in memory; the parent process writes them out when
// the run ends. A nil tracer records nothing, which is how untraced
// repetitions run.
type tracer struct {
	t0    time.Time
	run   int
	spans []span
	open  []int
}

func newTracer(run int) *tracer { return &tracer{t0: time.Now(), run: run} }

// begin opens a span covering n operations and returns its handle.
func (t *tracer) begin(name string, n int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Run: t.run, N: n})
	t.open = append(t.open, id)
	t.spans[id].Start = time.Since(t.t0).Nanoseconds()
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	if t.open[len(t.open)-1] != id {
		panic("bench: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
}

// repResult is what one repetition (one child process) reports.
type repResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`

	SetupS     float64 `json:"setup_s"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	Ops        uint64  `json:"ops"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`

	// Attempted/Failed count the workload's operations (probes,
	// packets, lookups); Digest hashes its simulated result.
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Digest    string `json:"digest"`

	// Counts holds the per-layer count metrics, keyed by metric name.
	Counts map[string]float64 `json:"counts"`

	// Traced repetitions only: harness spans and CPU-profile time per
	// layer in nanoseconds (keys: busyLayers, "other", "runtime_bg").
	Spans     []span           `json:"spans,omitempty"`
	BusyNS    map[string]int64 `json:"busy_ns,omitempty"`
	ProfileNS int64            `json:"profile_ns,omitempty"`
}

// instance is a workload after set-up: timed runs the measured part
// and returns how many operations it completed; finish checks the
// outputs and harvests counters into the result; close releases it.
type instance struct {
	timed  func() (ops uint64, err error)
	finish func(r *repResult) error
	close  func()
}

// workload is one named set of inputs. scale divides the work for the
// smoke test; every measurement runs at scale 1.
type workload struct {
	name  string
	why   string
	setup func(seed int64, scale int, tr *tracer) (*instance, error)
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rusage reads the process's user+system CPU seconds so far and its
// high-water resident set in MiB (Linux reports Maxrss in KiB).
func rusage() (cpuS, peakRSSMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// runRep executes one repetition in this process: set-up, then the
// timed part bracketed by the clocks, then the output check. With
// traced set it also records spans and a CPU profile of the timed
// part; profilePath, when non-empty, keeps the raw profile.
func runRep(w *workload, seed int64, scale, run int, traced bool, profilePath string) (*repResult, error) {
	res := &repResult{Workload: w.name, Seed: seed, Traced: traced, Counts: map[string]float64{}}
	var tr *tracer
	if traced {
		tr = newTracer(run)
	}

	t0 := time.Now()
	id := tr.begin("setup", 1)
	inst, err := w.setup(seed, scale, tr)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	res.SetupS = time.Since(t0).Seconds()

	// Collect set-up garbage now so the timed part's GC work is its own.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	cpu0, _ := rusage()
	t1 := time.Now()
	id = tr.begin("timed", 1)
	ops, err := inst.timed()
	tr.end(id)
	res.WallS = time.Since(t1).Seconds()
	cpu1, _ := rusage()
	res.CPUS = cpu1 - cpu0
	if traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("%s: timed part: %w", w.name, err)
	}
	if ops == 0 {
		return nil, fmt.Errorf("%s: timed part completed no operations", w.name)
	}
	res.Ops = ops
	// Allocations count from process start, set-up included: the
	// forwarding workloads allocate next to nothing once running, and a
	// ratio to next to nothing is all noise.
	res.Mallocs = m1.Mallocs
	res.AllocBytes = m1.TotalAlloc
	res.Counts["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	res.Counts["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	if err := inst.finish(res); err != nil {
		return nil, fmt.Errorf("%s: output check: %w", w.name, err)
	}
	_, res.PeakRSSMB = rusage()

	if traced {
		res.Spans = tr.spans
		res.BusyNS, res.ProfileNS, err = attributeProfile(prof.Bytes())
		if err != nil {
			return nil, fmt.Errorf("%s: CPU profile: %w", w.name, err)
		}
		if profilePath != "" {
			if err := os.WriteFile(profilePath, prof.Bytes(), 0o644); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}
