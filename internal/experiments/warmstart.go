package experiments

import (
	"sciera/internal/addr"
	"sciera/internal/core"
	"sciera/internal/multiping"
)

// Campaign warm-start: instead of every sharded worker converging a
// private replica (a full beaconing run each — the dominant setup cost
// on generated hundreds-of-AS topologies), one reference replica
// converges, its control-plane state is captured as a core.Snapshot,
// and every worker replica — including worker 0 — is the same
// constructor (campaignReplica) installing it copy-on-write. Byte-identity at any worker count is
// preserved: see the determinism argument in internal/core/snapshot.go
// and docs/architecture.md.

// ConvergeReference converges one reference replica, primes its path
// combination memo over the given probe pairs, captures the snapshot,
// and closes the replica. The snapshot is what every worker clones
// from.
func ConvergeReference(cfg Config, pairs []multiping.ProbePair) (*core.Snapshot, error) {
	n, _, err := campaignReplica(cfg, nil)
	if err != nil {
		return nil, err
	}
	defer n.Close()
	n.WarmPaths(probePairKeys(pairs))
	return n.Snapshot()
}

// CloneReplica constructs one campaign replica that installs snap
// instead of converging.
func CloneReplica(cfg Config, snap *core.Snapshot) (*core.Network, []multiping.IncidentEvent, error) {
	return campaignReplica(cfg, snap)
}

// ProbePairs enumerates the campaign's canonical probe pairs for the
// config's scenario and scale — what runShardedCampaign shards, and
// what the setup benchmark warms the reference over.
func (c Config) ProbePairs() []multiping.ProbePair {
	_, _, vantage := c.campaign()
	return multiping.AllPairs(vantage)
}

// probePairKeys projects probe pairs onto the (src, dst) keys the path
// memo is warmed over.
func probePairKeys(pairs []multiping.ProbePair) [][2]addr.IA {
	keys := make([][2]addr.IA, len(pairs))
	for i, p := range pairs {
		keys[i] = [2]addr.IA{p.Src, p.Dst}
	}
	return keys
}
