// Command bench is the repository's one benchmark: four workloads,
// the same end-to-end metrics for each, and per-layer attribution from
// a separate traced run. BENCHMARK.json at the repository root names
// this program; README.md in this directory has the tables.
//
//	go run -C bench .                          # every workload, untraced then traced
//	go run -C bench . --workload load-flows --seed 7 --trace 0
//	go run -C bench . -compare out/old.json out/new.json
//
// Everything is measured from outside the layers: harness spans around
// public calls, a runtime/pprof CPU profile charged to the innermost
// sciera/internal/<pkg> frame, and the counters the packages export.
//
// API surface rule. The harness calls only entry points ROADMAP keeps:
// scenario.Resolve; experiments.RunCampaign, Figure5..Figure10a,
// ConvergeReference, CloneReplica, Config.ProbePairs; core.Build,
// core.LoadSnapshotFile, Snapshot.WriteFile; Network.Paths, SetLinkUp,
// NewDaemon, Router, Registry, TelemetrySnapshot, Close; simnet.NewSim,
// Sim.Listen, Run, AllocAddr, ProcessedEvents, PeakPending, Stats,
// Conn.SendBatch; traffic.New, Engine.Start, Stats, FCT;
// slayers.Packet.Serialize, Decode; topology.New, AddAS, AddLink,
// Links; daemon.PathsAsync, FlushCache, Stats, CombineStats. It must
// not reference what ROADMAP item 2 deletes — pathdb.GetScan,
// simnet.NewSimWithScheduler / SchedulerHeap, experiments.BuildReplica,
// Config.ColdStart, RouterBatchWorkers, VerifyWorkers — so a deletion
// PR never has to edit the benchmark.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds mirrors run_seconds in BENCHMARK.json.
const defaultSeconds = 20

// minReps is the fewest repetitions a median is taken over.
const minReps = 3

// outDir receives spans, profiles and result files. It is relative to
// the working directory, which `go run -C bench` makes this directory.
const outDir = "out"

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four)")
		seed         = flag.Int64("seed", 42, "workload seed; 7 is the held-out seed")
		seconds      = flag.Float64("seconds", defaultSeconds, "measured time per workload and mode")
		trace        = flag.Int("trace", 2, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; 2: both")
		out          = flag.String("o", filepath.Join(outDir, "result.json"), "write the full result here")
		compare      = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		child        = flag.Bool("child", false, "internal: run one repetition in this process and print it as JSON")
		rep          = flag.Int("rep", 0, "internal: repetition index of -child")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *child:
		err = runChild(*workloadName, *seed, *rep, *trace == 1)
	default:
		err = runParent(*workloadName, *seed, *seconds, *trace, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runChild is one repetition in its own process, so that peak RSS and
// allocation counts belong to that repetition alone.
func runChild(name string, seed int64, rep int, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	profile := ""
	if traced {
		profile = filepath.Join(outDir, fmt.Sprintf("cpu-%s-rep%d.pprof", name, rep))
	}
	res, err := runRep(w, seed, 1, rep, traced, profile)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawnRep runs one repetition as a child process and waits for it.
func spawnRep(name string, seed int64, rep int, traced bool) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", name,
		"-seed", fmt.Sprint(seed), "-rep", fmt.Sprint(rep), "-trace", t)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s repetition %d: %w", name, rep, err)
	}
	var res repResult
	if err := json.Unmarshal(stdout, &res); err != nil {
		return nil, fmt.Errorf("%s repetition %d: bad result: %w", name, rep, err)
	}
	return &res, nil
}

// measure runs repetitions of the named workloads round-robin, so that
// a disturbance on the host spreads over all of them, until each has
// measured for the given time over at least minReps repetitions. In a
// traced run every other repetition is untraced: their ratio is the
// tracing overhead.
func measure(names []string, seed int64, seconds float64, traced bool) (map[string][]*repResult, error) {
	reps := map[string][]*repResult{}
	spent := map[string]float64{}
	for round := 0; ; round++ {
		ran := false
		for _, name := range names {
			if len(reps[name]) >= minReps && spent[name] >= seconds {
				continue
			}
			res, err := spawnRep(name, seed, round, traced && round%2 == 0)
			if err != nil {
				return nil, err
			}
			reps[name] = append(reps[name], res)
			spent[name] += res.SetupS + res.WallS
			ran = true
		}
		if !ran {
			return reps, nil
		}
	}
}

func runParent(only string, seed int64, seconds float64, trace int, out string) error {
	names := []string{only}
	if only == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, err := findWorkload(only); err != nil {
		return err
	}
	if trace < 0 || trace > 2 {
		return fmt.Errorf("-trace %d: want 0, 1 or 2", trace)
	}

	var untraced, traced map[string][]*repResult
	var err error
	if trace != 1 {
		if untraced, err = measure(names, seed, seconds, false); err != nil {
			return err
		}
	}
	if trace != 0 {
		if traced, err = measure(names, seed, seconds, true); err != nil {
			return err
		}
	}

	file := resultFile{Host: hostFacts(), Seed: seed, Seconds: seconds}
	var failures []string
	for _, name := range names {
		reps := append(append([]*repResult{}, untraced[name]...), traced[name]...)
		wr := summarize(name, seed, reps)
		if err := checkOutput(&wr, reps); err != nil {
			wr.Correct = false
			wr.Failed = wr.Attempted
			failures = append(failures, err.Error())
		}
		if trace != 0 {
			if err := writeSpans(name, reps); err != nil {
				return err
			}
		}
		printWorkload(os.Stdout, &wr)
		file.Workloads = append(file.Workloads, wr)
	}
	if err := writeJSON(out, file); err != nil {
		return err
	}
	if only != "" {
		// The contract line: the last line of standard output.
		if err := printContractLine(&file.Workloads[0], trace); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "; "))
	}
	for _, wr := range file.Workloads {
		if wr.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", wr.Name, wr.Failed, wr.Attempted)
		}
	}
	return nil
}

// checkOutput compares the repetitions' simulated results: all must
// agree with each other, and for the seeds with a committed digest,
// with that digest.
func checkOutput(wr *workloadResult, reps []*repResult) error {
	for _, r := range reps {
		if r.Digest != reps[0].Digest {
			return fmt.Errorf("%s seed %d: repetitions disagree on the simulated result (%s vs %s)",
				wr.Name, wr.Seed, reps[0].Digest, r.Digest)
		}
	}
	path := filepath.Join("expected", fmt.Sprintf("%s-seed%d.sha256", wr.Name, wr.Seed))
	want, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	wr.Expected = strings.TrimSpace(string(want))
	if wr.Expected != wr.Digest {
		return fmt.Errorf("%s seed %d: simulated result %s differs from %s (%s)",
			wr.Name, wr.Seed, wr.Digest, wr.Expected, path)
	}
	return nil
}

// writeSpans stores the traced repetitions' spans for one workload.
func writeSpans(name string, reps []*repResult) error {
	spans := []span{}
	for _, r := range reps {
		spans = append(spans, r.Spans...)
	}
	return writeJSON(filepath.Join(outDir, "trace-"+name+".json"), spans)
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// host records where a result was measured.
type host struct {
	GitRev     string `json:"git_rev"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OSArch     string `json:"os_arch"`
}

func hostFacts() host {
	rev := "unknown"
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(b))
	}
	return host{
		GitRev:     rev,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
}
