package experiments

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
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
		t.Fatalf("campaign (workers=%d snap=%q): %v", c.Workers, c.SnapshotPath, err)
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
// and a generated topology, a campaign whose replicas are (a) cloned
// in-memory from a converged reference, (b) cloned from a snapshot the
// run just serialized to disk, and (c) cloned from that snapshot file
// loaded cold at 1 and at 8 workers (restart-and-resume, nothing
// converges at all) must all be byte-identical to the one-worker run
// that converges directly.
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

				// One worker and no snapshot path converges directly.
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

				// Serialize: first run with a snapshot path converges the
				// reference and writes the file.
				snapPath := filepath.Join(t.TempDir(), "campaign.snapshot.json")
				saved := base
				saved.Workers = 2
				saved.SnapshotPath = snapPath
				ds, out = renderCampaign(t, saved)
				sameDataset(t, "warm save", ds, goldenDS)
				if out != goldenOut {
					t.Fatal("snapshot-saving run figures differ from cold golden")
				}
				if fi, err := os.Stat(snapPath); err != nil || fi.Size() == 0 {
					t.Fatalf("snapshot file not written: %v", err)
				}

				// Load: later runs find the file and clone every replica
				// from it — no convergence anywhere, still byte-identical.
				// One worker on purpose: the snapshot path forces the warm
				// path even at w=1.
				for _, workers := range []int{1, 8} {
					loaded := base
					loaded.Workers = workers
					loaded.SnapshotPath = snapPath
					ds, out = renderCampaign(t, loaded)
					sameDataset(t, "warm load", ds, goldenDS)
					if out != goldenOut {
						t.Fatalf("snapshot-loading run at %d workers: figures differ from cold golden", workers)
					}
				}
			})
		}
	}
}

// TestCampaignSnapshotStatError pins which stat failure means "no
// snapshot yet": a path whose parent is a regular file cannot be
// examined at all (ENOTDIR), so the campaign must stop on that error
// instead of converging as if the file were merely absent. The
// scenario cannot build, so a run that went on to converge reports the
// scenario's error instead.
func TestCampaignSnapshotStatError(t *testing.T) {
	parent := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(parent, []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Seed: 1, Quick: true,
		Scenario:     &scenario.Scenario{Links: []scenario.Link{{Name: "l", Type: "no-such-type"}}},
		SnapshotPath: filepath.Join(parent, "campaign.snapshot.json"),
	}
	snap, err := campaignSnapshot(cfg, nil)
	if snap != nil || !errors.Is(err, syscall.ENOTDIR) {
		t.Fatalf("campaignSnapshot = (%v, %v), want the ENOTDIR stat error", snap, err)
	}

	// Plain absence still converges: here that is the build error.
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "absent.json")
	if _, err := campaignSnapshot(cfg, nil); err == nil || !strings.Contains(err.Error(), "no-such-type") {
		t.Fatalf("absent snapshot: err = %v, want the scenario build error", err)
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
