package scenario

import (
	"fmt"
	"strings"

	"sciera/internal/addr"
	"sciera/scenarios"
)

// Builtin returns a fresh, validated copy of one of the two builtins.
// "sciera" is scenarios/sciera.json decoded by Load like any user file;
// "loadbench" is written here in Go, since decoding it would cost more
// than the load-flows workload's whole setup. Scenarios are mutable
// documents, so every lookup builds a new one and callers never share.
func Builtin(name string) (*Scenario, bool) {
	var s *Scenario
	var err error
	switch name {
	case "sciera":
		s, err = Load(strings.NewReader(scenarios.Sciera))
	case "loadbench":
		s = loadbenchScenario()
		err = Finish(s)
	default:
		return nil, false
	}
	if err != nil {
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

// BuiltinNames lists the builtin names, sorted.
func BuiltinNames() []string { return []string{"loadbench", "sciera"} }

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
