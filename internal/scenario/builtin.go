package scenario

import (
	"fmt"
	"sort"
	"sync"

	"sciera/internal/addr"
)

// The builtin registry follows the database/sql driver pattern:
// packages that own a reference deployment (internal/sciera) register a
// constructor from init(), and consumers blank-import them. The
// registry hands out a fresh scenario per call — scenarios are mutable
// documents and callers must not share one.

var (
	builtinMu  sync.Mutex
	builtins   = map[string]func() *Scenario{}
	builtinOrd []string
)

// Register installs a named builtin scenario constructor. The
// constructor returns an unnormalized scenario; the registry finishes
// it (normalize + validate) on every lookup. Register panics on a
// duplicate name — that is a programming error, not an input error.
func Register(name string, build func() *Scenario) {
	builtinMu.Lock()
	defer builtinMu.Unlock()
	if _, dup := builtins[name]; dup {
		panic(fmt.Sprintf("scenario: builtin %q registered twice", name))
	}
	builtins[name] = build
	builtinOrd = append(builtinOrd, name)
}

// Builtin returns a freshly built, validated builtin scenario.
func Builtin(name string) (*Scenario, bool) {
	builtinMu.Lock()
	build, ok := builtins[name]
	builtinMu.Unlock()
	if !ok {
		return nil, false
	}
	s := build()
	if err := Finish(s); err != nil {
		panic(fmt.Sprintf("scenario: builtin %q failed validation: %v", name, err))
	}
	return s, true
}

// MustBuiltin returns a builtin scenario or panics.
func MustBuiltin(name string) *Scenario {
	s, ok := Builtin(name)
	if !ok {
		panic(fmt.Sprintf("scenario: no builtin %q", name))
	}
	return s
}

// BuiltinNames lists the registered builtin names, sorted.
func BuiltinNames() []string {
	builtinMu.Lock()
	defer builtinMu.Unlock()
	names := append([]string(nil), builtinOrd...)
	sort.Strings(names)
	return names
}

func init() {
	Register("loadbench", loadbenchScenario)
}

// loadbenchScenario is the two-AS core pair the bench/ load-flows
// workload runs on: a single 1 ms circuit carrying the million-endpoint
// open-loop workload in both directions.
func loadbenchScenario() *Scenario {
	iaA := addr.MustParseIA("71-1")
	iaZ := addr.MustParseIA("71-2")
	return &Scenario{
		Version:     Version,
		Name:        "loadbench",
		Description: "Two-AS core pair for million-endpoint traffic-engine benchmarks.",
		ASes: []AS{
			{Name: "src", IA: iaA, Core: true, Role: "core"},
			{Name: "dst", IA: iaZ, Core: true, Role: "core"},
		},
		Links: []Link{
			{Name: "src-dst", A: iaA, B: iaZ, Type: LinkCore, LatencyMS: 1},
		},
		Vantage:  []addr.IA{iaA, iaZ},
		Campaign: Campaign{Days: 1, IntervalMinutes: 10, StartUnix: 1_700_000_000},
		Traffic: &Traffic{
			Pairs:              []TrafficPair{{Src: iaA, Dst: iaZ}, {Src: iaZ, Dst: iaA}},
			EndpointsPerSource: 1 << 20,
			ArrivalRatePerPair: 45_000,
			FlowPackets:        128,
			PayloadBytes:       200,
			PacketIntervalMS:   100,
			Burst:              4,
			HorizonMS:          1500,
			IntraASDelayUS:     1,
			Seed:               42,
		},
	}
}
