package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"sciera/internal/multiping"
	"sciera/internal/scenario"
)

func TestPlanShards(t *testing.T) {
	_, _, vantage := Config{Quick: true}.campaign()
	pairs := multiping.AllPairs(vantage)
	if len(pairs) != len(vantage)*(len(vantage)-1) {
		t.Fatalf("pair count = %d, want %d", len(pairs), len(vantage)*(len(vantage)-1))
	}
	for _, workers := range []int{0, 1, 2, 3, 7, len(pairs), len(pairs) + 5} {
		shards := planShards(pairs, workers)
		want := workers
		if want < 1 {
			want = 1
		}
		if want > len(pairs) {
			want = len(pairs)
		}
		if len(shards) != want {
			t.Errorf("workers=%d: %d shards, want %d", workers, len(shards), want)
		}
		// Every pair appears exactly once, indexes intact, and the load
		// is balanced to within one pair.
		seen := make(map[int]bool)
		minLen, maxLen := len(pairs), 0
		for _, shard := range shards {
			if len(shard) < minLen {
				minLen = len(shard)
			}
			if len(shard) > maxLen {
				maxLen = len(shard)
			}
			for _, p := range shard {
				if seen[p.Index] {
					t.Fatalf("workers=%d: pair index %d sharded twice", workers, p.Index)
				}
				seen[p.Index] = true
				if pairs[p.Index] != p {
					t.Fatalf("workers=%d: pair %v lost its canonical index", workers, p)
				}
			}
		}
		if len(seen) != len(pairs) {
			t.Errorf("workers=%d: %d pairs sharded, want %d", workers, len(seen), len(pairs))
		}
		if maxLen-minLen > 1 {
			t.Errorf("workers=%d: shard sizes %d..%d, want balanced", workers, minLen, maxLen)
		}
	}
}

// TestShardedCampaignByteIdentical is the tentpole's correctness
// anchor: a campaign sharded 1/2/4/8 ways must produce byte-identical
// datasets and byte-identical figure output (the golden comparison is
// against the 1-worker run, which in turn is what docs/reference-run.txt
// records at full scale).
func TestShardedCampaignByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four quick campaigns")
	}
	render := func(workers int) (*multiping.Dataset, string) {
		c := cfg
		c.Workers = workers
		ds, n, err := RunCampaign(c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
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

	goldenDS, goldenOut := render(1)
	for _, workers := range []int{2, 4, 8} {
		ds, out := render(workers)
		if len(ds.Records) != len(goldenDS.Records) {
			t.Fatalf("workers=%d: %d records, want %d", workers, len(ds.Records), len(goldenDS.Records))
		}
		for i := range ds.Records {
			if ds.Records[i] != goldenDS.Records[i] {
				t.Fatalf("workers=%d: record %d differs:\n  %+v\n  %+v",
					workers, i, ds.Records[i], goldenDS.Records[i])
			}
		}
		if len(ds.PathCounts) != len(goldenDS.PathCounts) {
			t.Fatalf("workers=%d: %d path-count samples, want %d",
				workers, len(ds.PathCounts), len(goldenDS.PathCounts))
		}
		for i := range ds.PathCounts {
			if ds.PathCounts[i] != goldenDS.PathCounts[i] {
				t.Fatalf("workers=%d: path-count sample %d differs:\n  %+v\n  %+v",
					workers, i, ds.PathCounts[i], goldenDS.PathCounts[i])
			}
		}
		if ds.Probes != goldenDS.Probes {
			t.Errorf("workers=%d: probes = %d, want %d", workers, ds.Probes, goldenDS.Probes)
		}
		if out != goldenOut {
			t.Errorf("workers=%d: figure output differs from 1-worker golden", workers)
		}
	}
}

// TestCappedCampaignRunsAsOneShard: on capped links a probe queues
// behind what other pairs send, so sharding would change the records
// (seed 7, quick, every link at 10 Mbps: workers 1 and 2 differed). A
// capped campaign runs as one shard and gives the same dataset at any
// worker count, and a new link carries its cap too.
func TestCappedCampaignRunsAsOneShard(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two quick campaigns")
	}
	s := scenario.MustBuiltin("sciera")
	for i := range s.Links {
		s.Links[i].BandwidthMbps = 10
	}
	for i := range s.NewLinks {
		s.NewLinks[i].BandwidthMbps = 10
	}
	if len(s.NewLinks) == 0 {
		t.Fatal("sciera has no new links to cap")
	}
	run := func(workers int) *multiping.Dataset {
		c := cfg
		c.Scenario, c.Workers = s, workers
		ds, n, err := RunCampaign(c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		defer n.Close()
		for _, nl := range s.NewLinks {
			id, ok := n.Topo.LinkIDByName(nl.Name)
			if !ok || n.Topo.Links()[id].BandwidthMbps != 10 {
				t.Errorf("new link %q is not capped at 10 Mbps", nl.Name)
			}
		}
		return ds
	}
	var one, two bytes.Buffer
	if err := run(1).Write(&one); err != nil {
		t.Fatal(err)
	}
	if err := run(2).Write(&two); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Error("capped campaign: workers 1 and 2 give different datasets")
	}
}

// TestShardedTelemetryMerge checks the per-worker registry merge: probe
// totals in the merged telemetry dump must equal the dataset's own
// count regardless of worker count.
func TestShardedTelemetryMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two quick campaigns")
	}
	for _, workers := range []int{1, 3} {
		path := t.TempDir() + fmt.Sprintf("/telem-%d.json", workers)
		c := cfg
		c.Workers = workers
		c.TelemetryPath = path
		ds, n, err := RunCampaign(c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		n.Close()
		snap, err := LoadTelemetry(path)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := snap.Total("sciera_multiping_probes_total"); got != float64(ds.Probes) {
			t.Errorf("workers=%d: merged probe total = %v, dataset says %d", workers, got, ds.Probes)
		}
		if snap.Total("sciera_simnet_delivered_total") == 0 {
			t.Errorf("workers=%d: merged snapshot lost simnet counters", workers)
		}
	}
}
