package experiments

import (
	"fmt"
	"os"
	"sync"

	"sciera/internal/core"
	"sciera/internal/multiping"
	"sciera/internal/scenario"
	"sciera/internal/telemetry"
)

// The sharded campaign engine: the measurement campaign is
// embarrassingly partitionable because (a) every vantage pair's probes
// are causally independent — on uncapped links probes never queue
// behind each other, so a pair's RTTs do not depend on what other pairs
// send — and (b) the control-plane evolution is a pure function of
// (seed, incident calendar), which every worker replays identically on
// its private network replica. Shard partials carry canonical sequence
// numbers, so Dataset.Merge reassembles the exact single-worker record
// order and the final figures are byte-identical for any worker count.
// A scenario that caps any link or new link breaks (a): its campaign
// runs as one shard whatever the worker count.

// planShards stripes the canonical pair enumeration round-robin across
// workers. Striping (rather than contiguous blocks) balances load: the
// enumeration is vantage-major, so a block split would hand one worker
// all pairs of one vantage AS — and with it all of that AS's path-probe
// bursts — while striping spreads every vantage's pairs evenly.
func planShards(pairs []multiping.ProbePair, workers int) [][]multiping.ProbePair {
	if workers < 1 {
		workers = 1
	}
	if workers > len(pairs) {
		workers = len(pairs)
	}
	shards := make([][]multiping.ProbePair, workers)
	for i, p := range pairs {
		shards[i%workers] = append(shards[i%workers], p)
	}
	return shards
}

// capped reports whether s caps the bandwidth of any link or new link:
// a probe there queues behind what other pairs send, so pairs are no
// longer independent.
func capped(s *scenario.Scenario) bool {
	for _, l := range s.Links {
		if l.BandwidthMbps > 0 {
			return true
		}
	}
	for _, nl := range s.NewLinks {
		if nl.BandwidthMbps > 0 {
			return true
		}
	}
	return false
}

// shardResult is one worker's output: its partial dataset and its
// network replica (kept open until telemetry is harvested).
type shardResult struct {
	ds  *multiping.Dataset
	n   *core.Network
	err error
}

// runShardedCampaign partitions the campaign across cfg.Workers
// goroutine workers, each owning a private seeded replica of the
// network, and merges the partial datasets deterministically. The
// returned network is worker 0's replica in its post-campaign state —
// with warm start every worker's replica (worker 0 included) is
// constructed through the identical snapshot/clone path, so which one
// is returned is immaterial.
//
// With more than one worker, one reference replica converges and every
// worker installs its snapshot copy-on-write. A single-worker run is
// the same constructor with no snapshot — it converges, there being
// nothing to amortize; both are byte-identical.
func runShardedCampaign(cfg Config, campaignCfg multiping.Config) (*multiping.Dataset, *core.Network, error) {
	pairs := multiping.AllPairs(campaignCfg.Vantage)
	if len(pairs) == 0 {
		return nil, nil, fmt.Errorf("experiments: campaign has no probe pairs")
	}
	workers := cfg.Workers
	if capped(cfg.scn()) {
		workers = 1
	}
	shards := planShards(pairs, workers)

	var snap *core.Snapshot
	if len(shards) > 1 {
		var err error
		if snap, err = ConvergeReference(cfg, pairs); err != nil {
			return nil, nil, err
		}
	}

	results := make([]shardResult, len(shards))
	var wg sync.WaitGroup
	for i, shard := range shards {
		wg.Add(1)
		go func(i int, shard []multiping.ProbePair) {
			defer wg.Done()
			results[i] = runShard(cfg, campaignCfg, shard, snap)
		}(i, shard)
	}
	wg.Wait()

	closeAll := func() {
		for _, r := range results {
			if r.n != nil {
				r.n.Close()
			}
		}
	}
	for _, r := range results {
		if r.err != nil {
			closeAll()
			return nil, nil, r.err
		}
	}

	// Deterministic merge: Dataset.Merge restores canonical (T, Seq)
	// order, so the merged dataset — and every figure derived from it —
	// is independent of worker count and completion order.
	merged := &multiping.Dataset{}
	for _, r := range results {
		merged.Merge(r.ds)
	}

	if cfg.TelemetryPath != "" {
		snaps := make([]telemetry.Snapshot, len(results))
		for i, r := range results {
			snaps[i] = r.n.TelemetrySnapshot()
		}
		if err := dumpTelemetry(telemetry.MergeSnapshots(snaps...), cfg.TelemetryPath); err != nil {
			closeAll()
			return nil, nil, err
		}
	}

	// Worker 0's replica is returned for post-campaign inspection (all
	// replicas are constructed identically, so any would do); the
	// others are done once their telemetry is harvested.
	for _, r := range results[1:] {
		r.n.Close()
	}
	return merged, results[0].n, nil
}

// runShard executes one worker's slice of the campaign on a fresh
// network replica — installed from the snapshot when one is provided,
// converged otherwise. The replica replays the full incident calendar
// even for pairs it does not probe, so its control-plane state matches
// the unsharded run's at every instant.
func runShard(cfg Config, campaignCfg multiping.Config, shard []multiping.ProbePair, snap *core.Snapshot) shardResult {
	n, events, err := campaignReplica(cfg, snap)
	if err != nil {
		return shardResult{err: err}
	}
	campaignCfg.Incidents = events
	campaignCfg.Pairs = shard
	camp, err := multiping.NewCampaign(n, campaignCfg)
	if err != nil {
		n.Close()
		return shardResult{err: err}
	}
	defer camp.Close()
	ds, err := camp.Run()
	if err != nil {
		n.Close()
		return shardResult{err: err}
	}
	return shardResult{ds: ds, n: n}
}

// dumpTelemetry writes a snapshot as JSON.
func dumpTelemetry(snap telemetry.Snapshot, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
