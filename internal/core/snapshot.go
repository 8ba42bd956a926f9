package core

// Converged-state snapshots: after one reference replica converges, its
// entire control-plane state — segment registries (with the path
// combinations they have memoized and the beacons their run kept), trust
// material and beacon counters — is captured into an immutable Snapshot.
// Worker replicas are then constructed by copy-on-write cloning
// (NewShell + InstallSnapshot) instead of converging (NewShell +
// Converge), which is what makes sharded-campaign setup O(1) in the
// worker count.
//
// Determinism argument (DESIGN.md decision 16): a
// cloned replica is byte-identical to an independently converged one
// because (1) the registry clone shares the very segment objects the
// reference converged to, and pathdb result order is a property of the
// store (ID-sorted), so every lookup answers identically; (2) a beacon
// is a function of its route, the timestamp and the hop keys — nothing
// is drawn — so a refresh builds the registry a cold run over the same
// topology would, whether it starts from the kept beacons (in-memory
// snapshots share them) or from none (on-disk ones); (3) hop keys are
// re-derived from (seed, IA) and trust material is shared (or, for
// on-disk snapshots, re-provisioned from crypto/rand, which never feeds
// figure output); and (4) both kinds of replica are the same shell with
// the same links spliced in, so they hold the same simulated addresses
// and ports: converging and installing perform no transport operation.

import (
	"encoding/json"
	"fmt"
	"os"

	"sciera/internal/addr"
	"sciera/internal/beacon"
	"sciera/internal/cppki"
	"sciera/internal/pathdb"
	"sciera/internal/segment"
	"sciera/internal/telemetry"
)

// SnapshotVersion is the on-disk snapshot format version. Version 1
// recorded a position in a seeded RNG stream beacon origination no
// longer draws from; version 2 listed each AS's up segments by ID beside
// the down segments they are. LoadSnapshotFile refuses both by number.
const SnapshotVersion = 3

// Snapshot is an immutable capture of a converged network's
// control-plane state. In-memory snapshots share the reference
// replica's registry (segments and memoized combinations) and trust
// material by reference (all immutable or concurrency-safe); the
// serializable form (WriteFile/LoadSnapshotFile) carries segments and
// counters but omits trust material (private keys never leave the
// process), the derivable combination memo and the kept beacons, so the
// first refresh after a load from disk builds everything.
type Snapshot struct {
	// Seed, WithPKI, ASes and Links fingerprint the configuration the
	// snapshot was taken under; InstallSnapshot refuses a mismatch.
	Seed    int64
	WithPKI bool
	ASes    int
	Links   int
	// Registry is the reference replica's converged segment registry;
	// each InstallSnapshot clones it copy-on-write, memo and kept
	// beacons included.
	Registry *beacon.Registry
	// Trust is the shared trust bundle (nil for snapshots loaded from
	// disk, or unsigned networks; loaded PKI snapshots re-provision).
	Trust *cppki.TrustMaterial
	// Beacon holds the beacon runner's cumulative counters at capture
	// time by metric name (beacon.RunnerMetrics.Counters); clones restore
	// them into fresh private cells, so a warm-started replica reports
	// the beaconing telemetry an independently converged one would.
	// VerifyLatency is the reference's verification-latency histogram
	// (nil unsigned), merged into each clone's fresh histogram.
	Beacon        map[string]uint64
	VerifyLatency *telemetry.Histogram
}

// WarmPaths primes the registry's memoized path combinations for the
// given (src, dst) pairs, so every replica cloned from a Snapshot of
// this network starts with a fully warm lookup memo.
func (n *Network) WarmPaths(pairs [][2]addr.IA) {
	for _, p := range pairs {
		n.Paths(p[0], p[1])
	}
}

// Snapshot captures the network's converged control-plane state. The
// network must stay unmutated (no refresh, no topology change) while
// clones install from the snapshot — in the campaign flow the reference
// replica is closed right after capture.
func (n *Network) Snapshot() (*Snapshot, error) {
	reg := n.Registry()
	if reg == nil {
		return nil, fmt.Errorf("core: snapshot of an unconverged network")
	}
	s := &Snapshot{
		Seed:     n.Opts.Seed,
		WithPKI:  n.Opts.WithPKI,
		ASes:     len(n.Topo.ASes()),
		Links:    len(n.Topo.Links()),
		Registry: reg,
	}
	if n.Opts.WithPKI {
		s.Trust = &cppki.TrustMaterial{TRCs: n.trcs, Signers: n.signers, Chains: n.chains}
	}
	s.Beacon = n.beaconMetrics.Counters()
	s.VerifyLatency = n.beaconMetrics.VerifyLatency
	return s, nil
}

// InstallSnapshot gives a shell its control-plane state by adopting a
// snapshot's: the registry is installed as a copy-on-write clone, trust
// material is adopted (or, for snapshots loaded from disk under WithPKI,
// re-provisioned), and the shell's beacon counters take the reference's
// values. The network's topology must match the snapshot's (same seed,
// PKI mode, AS and link counts) — callers add runtime links before
// installing.
func (n *Network) InstallSnapshot(snap *Snapshot) error {
	switch {
	case snap.Registry == nil:
		return fmt.Errorf("core: snapshot has no registry")
	case snap.Seed != n.Opts.Seed:
		return fmt.Errorf("core: snapshot seed %d, network seed %d", snap.Seed, n.Opts.Seed)
	case snap.WithPKI != n.Opts.WithPKI:
		return fmt.Errorf("core: snapshot with_pki=%v, network with_pki=%v", snap.WithPKI, n.Opts.WithPKI)
	case snap.ASes != len(n.Topo.ASes()):
		return fmt.Errorf("core: snapshot has %d ASes, topology has %d", snap.ASes, len(n.Topo.ASes()))
	case snap.Links != len(n.Topo.Links()):
		return fmt.Errorf("core: snapshot has %d links, topology has %d", snap.Links, len(n.Topo.Links()))
	}
	if n.Registry() != nil {
		return errConverged
	}

	// Trust: share the reference's material, or provision fresh for
	// snapshots loaded from disk (PKI material never feeds figure
	// output, so a fresh PKI preserves byte-identity).
	// The shared chain cache's telemetry cells are deliberately not
	// re-registered into this replica's registry: they are owned by the
	// reference capture, and registering shared cells in every clone
	// would multiply them in merged telemetry.
	if snap.Trust != nil {
		n.trcs = snap.Trust.TRCs
		n.signers = snap.Trust.Signers
		n.chains = snap.Trust.Chains
	} else if n.Opts.WithPKI {
		if err := n.provisionPKI(); err != nil {
			return err
		}
	}

	// Beacon telemetry: the shell's own cells, still zero, take the
	// reference's values, so a clone's counters match an independently
	// converged replica's and per-worker registries merge identically.
	n.beaconMetrics.Restore(snap.Beacon)
	if snap.VerifyLatency != nil {
		if err := n.beaconMetrics.VerifyLatency.Merge(snap.VerifyLatency); err != nil {
			return err
		}
	}

	// Registry: a copy-on-write clone, carrying the reference's memoized
	// combinations.
	n.mu.Lock()
	n.registry = snap.Registry.Clone()
	n.mu.Unlock()
	return nil
}

// snapshotFile is the canonical serializable snapshot form. Encoding is
// canonical — segments are emitted in store order (ID-sorted, a
// property of pathdb), map keys sort under encoding/json — so identical
// state produces identical bytes.
type snapshotFile struct {
	Version int               `json:"version"`
	Seed    int64             `json:"seed"`
	WithPKI bool              `json:"with_pki"`
	ASes    int               `json:"ases"`
	Links   int               `json:"links"`
	Beacon  map[string]uint64 `json:"beacon_counters"`
	Core    []json.RawMessage `json:"core_segments"`
	Down    []json.RawMessage `json:"down_segments"`
}

// WriteFile serializes the snapshot to path in the canonical,
// seed-stamped on-disk form. Trust material and the combination memo
// are omitted: private keys must not leave the process (a loaded
// WithPKI snapshot provisions a fresh PKI), and combinations are
// derivable from the registries.
func (s *Snapshot) WriteFile(path string) error {
	f := snapshotFile{
		Version: SnapshotVersion,
		Seed:    s.Seed,
		WithPKI: s.WithPKI,
		ASes:    s.ASes,
		Links:   s.Links,
		Beacon:  s.Beacon,
	}
	encode := func(segs []*segment.Segment) ([]json.RawMessage, error) {
		out := make([]json.RawMessage, 0, len(segs))
		for _, seg := range segs {
			b, err := seg.Encode()
			if err != nil {
				return nil, err
			}
			out = append(out, b)
		}
		return out, nil
	}
	var err error
	if f.Core, err = encode(s.Registry.Core.All()); err != nil {
		return err
	}
	if f.Down, err = encode(s.Registry.Down.All()); err != nil {
		return err
	}
	enc, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// LoadSnapshotFile reads a snapshot written by WriteFile and rebuilds
// the in-memory registries. The result carries no trust material and no
// combination memo; InstallSnapshot provisions and recombines as needed.
func LoadSnapshotFile(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f snapshotFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("core: snapshot %s: %w", path, err)
	}
	if f.Version != SnapshotVersion {
		return nil, fmt.Errorf("core: snapshot %s: version %d, want %d", path, f.Version, SnapshotVersion)
	}
	decode := func(name string, raws []json.RawMessage) (*pathdb.DB, error) {
		db := pathdb.New()
		for _, b := range raws {
			seg, err := segment.Decode(b)
			if err != nil {
				return nil, fmt.Errorf("core: snapshot %s: %s segment: %w", path, name, err)
			}
			db.Insert(seg)
		}
		return db, nil
	}
	reg := &beacon.Registry{}
	if reg.Core, err = decode("core", f.Core); err != nil {
		return nil, err
	}
	if reg.Down, err = decode("down", f.Down); err != nil {
		return nil, err
	}
	return &Snapshot{
		Seed:     f.Seed,
		WithPKI:  f.WithPKI,
		ASes:     f.ASes,
		Links:    f.Links,
		Beacon:   f.Beacon,
		Registry: reg,
	}, nil
}
