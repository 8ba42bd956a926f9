package sciera

import (
	"bytes"
	"os"
	"testing"

	"sciera/internal/scenario"
)

// TestBuiltinMatchesCommittedJSON pins the deployment: the canonical
// dump of the builtin must equal scenarios/sciera.json byte for byte.
// That fixes AS and vantage order (the dataset's Seq numbering), every
// derived latency, the incident calendar and the IP plane — which is
// what keeps the reference campaign's bytes where they are. After an
// intended change, regenerate the file with
// `go run ./cmd/experiments -scenario-dump -scenario sciera`.
func TestBuiltinMatchesCommittedJSON(t *testing.T) {
	want, err := os.ReadFile("../../scenarios/sciera.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := scenario.MustBuiltin("sciera").Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("builtin %q drifted from scenarios/sciera.json (%d vs %d bytes)", "sciera", len(got), len(want))
	}
}

// TestScenarioRoundTrip pins that the builtin survives serialization:
// file-based workflows (scenario-dump, committed scenario files) see
// the identical deployment.
func TestScenarioRoundTrip(t *testing.T) {
	if err := scenario.RoundTrip(scenario.MustBuiltin("sciera")); err != nil {
		t.Fatal(err)
	}
}
