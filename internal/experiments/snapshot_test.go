package experiments

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"sciera/internal/core"
	"sciera/internal/cppki"
	"sciera/internal/multiping"
	"sciera/internal/scenario"
	"sciera/internal/simnet"
)

// renderCampaign runs the full quick campaign for a config and returns
// the dataset plus the rendered bytes of every figure it feeds — the
// byte-identity unit of comparison.
func renderCampaign(t *testing.T, c Config) (*multiping.Dataset, string) {
	t.Helper()
	ds, n, err := RunCampaign(c)
	if err != nil {
		t.Fatalf("campaign (workers=%d): %v", c.Workers, err)
	}
	defer n.Close()
	duration, interval, _ := c.campaign()
	s := c.scn()
	var buf bytes.Buffer
	Figure5(&buf, ds)
	Figure6(&buf, s, ds)
	Figure7(&buf, s, ds)
	Figure8(&buf, s, ds)
	Figure9(&buf, s, ds, duration, interval)
	Figure10a(&buf, ds)
	return ds, buf.String()
}

func sameDataset(t *testing.T, label string, got, want *multiping.Dataset) {
	t.Helper()
	if len(got.Records) != len(want.Records) {
		t.Fatalf("%s: %d records, want %d", label, len(got.Records), len(want.Records))
	}
	for i := range got.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("%s: record %d differs:\n  %+v\n  %+v", label, i, got.Records[i], want.Records[i])
		}
	}
	if got.Probes != want.Probes {
		t.Fatalf("%s: probes = %d, want %d", label, got.Probes, want.Probes)
	}
}

// TestSnapshotWarmStartByteIdentical is the snapshot round-trip
// property test: for multiple seeds on both the builtin SCIERA scenario
// and a generated topology, a four-worker campaign whose replicas are
// cloned in memory from a converged reference must be byte-identical to
// the one-worker run that converges directly.
func TestSnapshotWarmStartByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many quick campaigns")
	}
	gen, err := scenario.Resolve("gen:isds=2,ases=24,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		scn  *scenario.Scenario
	}{
		{"sciera", nil},
		{"gen24", gen},
	}
	for _, tc := range cases {
		for _, seed := range []int64{7, 11} {
			t.Run(tc.name, func(t *testing.T) {
				base := Config{Seed: seed, Quick: true, Scenario: tc.scn}

				// One worker converges directly.
				cold := base
				cold.Workers = 1
				goldenDS, goldenOut := renderCampaign(t, cold)

				// In-memory warm start (the multi-worker default).
				warm := base
				warm.Workers = 4
				ds, out := renderCampaign(t, warm)
				sameDataset(t, "warm in-memory", ds, goldenDS)
				if out != goldenOut {
					t.Fatal("warm in-memory figures differ from cold golden")
				}
			})
		}
	}
}

// TestClonedReplicaServesTRC: a -pki replica installed from a snapshot
// answers TRC requests from the trust material it adopted — shared in
// memory, re-provisioned after the file round trip — not from the empty
// store its shell came up with. The daemon verifies what it fetches.
func TestClonedReplicaServesTRC(t *testing.T) {
	c := Config{Seed: 7, Quick: true, WithPKI: true}
	snap, err := ConvergeReference(c, c.ProbePairs())
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "snap.json")
	if err := snap.WriteFile(file); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadSnapshotFile(file)
	if err != nil {
		t.Fatal(err)
	}
	_, _, vantage := c.campaign()
	ia := vantage[0]
	for _, tc := range []struct {
		name string
		snap *core.Snapshot
	}{{"in memory", snap}, {"loaded from its file", loaded}} {
		n, _, err := CloneReplica(c, tc.snap)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		defer n.Close()
		d, err := n.NewDaemon(ia)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		defer d.Close()
		var (
			got      *cppki.TRC
			fetchErr = errors.New("no answer")
		)
		d.FetchTRCAsync(ia.ISD(), func(trc *cppki.TRC, err error) { got, fetchErr = trc, err })
		n.Transport.(*simnet.Sim).RunFor(5 * time.Second)
		if fetchErr != nil {
			t.Fatalf("%s: TRC of ISD %d through %v's control service: %v", tc.name, ia.ISD(), ia, fetchErr)
		}
		want, ok := n.TRCs().Get(ia.ISD())
		if !ok {
			t.Fatalf("%s: replica holds no TRC for ISD %d", tc.name, ia.ISD())
		}
		gb, _ := got.Encode()
		wb, _ := want.Encode()
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s: served TRC is not the one the replica verifies beacons against", tc.name)
		}
	}
}
