package core

// Converged-state snapshots: after one reference replica converges, its
// entire control-plane state — segment registries (with the path
// combinations they have memoized), trust material, beacon counters, and
// the position of the seeded control-plane RNG — is captured into an
// immutable Snapshot.
// Worker replicas are then constructed by copy-on-write cloning
// (BuildWarm + InstallSnapshot) instead of re-running beaconing, which
// is what makes sharded-campaign setup O(1) in the worker count.
//
// Determinism argument (docs/architecture.md has the long form): a
// cloned replica is byte-identical to an independently converged one
// because (1) the registry clone shares the very segment objects the
// reference converged to, and pathdb result order is a property of the
// store (ID-sorted), so every lookup answers identically; (2) the only
// consumer of the seeded RNG is beacon origination, and the counting
// source lets the clone fast-forward to the reference's exact position,
// so mid-campaign incident refreshes replay the same draws; (3) hop
// keys are re-derived from (seed, IA) and trust material is shared (or,
// for on-disk snapshots, re-provisioned from crypto/rand, which never
// feeds figure output); and (4) PKI provisioning and beaconing perform
// no transport operations, so the warm build allocates the same
// simulated addresses and ports in the same order as a cold one.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"sciera/internal/addr"
	"sciera/internal/beacon"
	"sciera/internal/cppki"
	"sciera/internal/pathdb"
	"sciera/internal/segment"
	"sciera/internal/telemetry"
)

// SnapshotVersion is the on-disk snapshot format version.
const SnapshotVersion = 1

// countingSource wraps the seeded math/rand source, counting generator
// state advances. It is a pure pass-through — the wrapped source
// produces the exact byte stream it would unwrapped (it implements
// rand.Source64, so rand.Rand takes the same Uint64 path) — which keeps
// every existing seeded run byte-identical. Each Int63/Uint64 call
// advances the underlying generator state exactly once, so the count
// identifies the generator position independent of which method was
// called, and a clone can fast-forward by discarding that many draws.
type countingSource struct {
	src   rand.Source64
	count uint64
}

// newCountingSource seeds a counting source. rand.NewSource's result
// implements Source64 (guaranteed since Go 1.8).
func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *countingSource) Int63() int64 {
	c.count++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.count++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.count = 0
	c.src.Seed(seed)
}

// Count returns how many times the generator state has advanced.
func (c *countingSource) Count() uint64 { return c.count }

// BeaconCounters holds the cumulative beacon runner counter values at
// snapshot time. Clones restore them into fresh private cells, so a
// warm-started replica reports the same beaconing telemetry an
// independently converged one would.
type BeaconCounters struct {
	Originated   uint64 `json:"originated"`
	Propagated   uint64 `json:"propagated"`
	Filtered     uint64 `json:"filtered"`
	Pruned       uint64 `json:"pruned"`
	Registered   uint64 `json:"registered"`
	Verified     uint64 `json:"verified"`
	VerifyFailed uint64 `json:"verify_failed"`
}

// Snapshot is an immutable capture of a converged network's
// control-plane state. In-memory snapshots share the reference
// replica's registry (segments and memoized combinations) and trust
// material by reference (all immutable or concurrency-safe); the
// serializable form (WriteFile/LoadSnapshotFile) carries segments and
// counters but omits trust material (private keys never leave the
// process) and the derivable combination memo.
type Snapshot struct {
	// Seed, WithPKI, ASes and Links fingerprint the configuration the
	// snapshot was taken under; InstallSnapshot refuses a mismatch.
	Seed    int64
	WithPKI bool
	ASes    int
	Links   int
	// RandDraws is the seeded control-plane RNG position: how many
	// state advances convergence consumed. Clones fast-forward to it.
	RandDraws uint64
	// Registry is the reference replica's converged segment registry;
	// each InstallSnapshot clones it copy-on-write, memo included.
	Registry *beacon.Registry
	// Trust is the shared trust bundle (nil for snapshots loaded from
	// disk, or unsigned networks; loaded PKI snapshots re-provision).
	Trust *cppki.TrustMaterial
	// Beacon holds the counter values at capture time; VerifyLatency is
	// the reference's verification-latency histogram (nil unsigned),
	// merged into each clone's fresh histogram.
	Beacon        BeaconCounters
	VerifyLatency *telemetry.Histogram
}

// newVerifyLatencyHistogram allocates the per-beacon verification
// latency histogram with the bucket layout shared by cold refreshes and
// snapshot restores (Histogram.Merge requires identical bounds).
func newVerifyLatencyHistogram() *telemetry.Histogram {
	return telemetry.NewHistogram(0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10)
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
		Seed:      n.Opts.Seed,
		WithPKI:   n.Opts.WithPKI,
		ASes:      len(n.Topo.ASes()),
		Links:     len(n.Topo.Links()),
		RandDraws: n.rngSrc.Count(),
		Registry:  reg,
	}
	if n.Opts.WithPKI {
		s.Trust = &cppki.TrustMaterial{TRCs: n.trcs, Signers: n.signers, Chains: n.chains}
	}
	if m := n.beaconMetrics; m != nil {
		s.Beacon = BeaconCounters{
			Originated:   m.Originated.Load(),
			Propagated:   m.Propagated.Load(),
			Filtered:     m.Filtered.Load(),
			Pruned:       m.Pruned.Load(),
			Registered:   m.Registered.Load(),
			Verified:     m.Verified.Load(),
			VerifyFailed: m.VerifyFailed.Load(),
		}
		s.VerifyLatency = m.VerifyLatency
	}
	return s, nil
}

// InstallSnapshot makes a BuildWarm network serve a snapshot's
// converged control-plane state: the registry is installed as a
// copy-on-write clone, trust material is adopted (or, for snapshots
// loaded from disk under WithPKI, re-provisioned), beacon counters are
// restored into fresh private cells, and the seeded RNG fast-forwards
// to the recorded position. The network's topology must match the
// snapshot's (same seed, PKI mode, AS and link counts) — callers add
// runtime links before installing.
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
		return fmt.Errorf("core: network already converged (InstallSnapshot requires BuildWarm)")
	}
	if got := n.rngSrc.Count(); got != 0 {
		return fmt.Errorf("core: warm network consumed %d RNG draws before install", got)
	}

	// Trust: share the reference's material, or provision fresh for
	// snapshots loaded from disk (PKI material never feeds the seeded
	// RNG or figure output, so a fresh PKI preserves byte-identity).
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

	// Registry: copy-on-write clone (carrying the reference's memoized
	// combinations), plus the empty per-AS up-segment stores beaconing
	// would have created (on-disk snapshots omit segmentless ASes).
	reg := snap.Registry.Clone()
	for _, as := range n.Topo.ASes() {
		if !as.Core && reg.Up[as.IA] == nil {
			reg.Up[as.IA] = pathdb.New()
		}
	}

	// Beacon telemetry: fresh private cells restored to the reference's
	// values, so a clone's counters match an independently converged
	// replica's and per-worker registries merge identically.
	n.beaconMetrics = &beacon.RunnerMetrics{}
	n.beaconMetrics.Originated.Add(snap.Beacon.Originated)
	n.beaconMetrics.Propagated.Add(snap.Beacon.Propagated)
	n.beaconMetrics.Filtered.Add(snap.Beacon.Filtered)
	n.beaconMetrics.Pruned.Add(snap.Beacon.Pruned)
	n.beaconMetrics.Registered.Add(snap.Beacon.Registered)
	n.beaconMetrics.Verified.Add(snap.Beacon.Verified)
	n.beaconMetrics.VerifyFailed.Add(snap.Beacon.VerifyFailed)
	if n.Opts.WithPKI {
		n.beaconMetrics.VerifyLatency = newVerifyLatencyHistogram()
		if snap.VerifyLatency != nil {
			if err := n.beaconMetrics.VerifyLatency.Merge(snap.VerifyLatency); err != nil {
				return err
			}
		}
	}
	if n.telem != nil {
		n.beaconMetrics.Register(n.telem)
	}

	// Fast-forward the seeded RNG to the reference's position, so the
	// next consumer (an incident-triggered refresh) draws exactly what
	// it would on an independently converged replica.
	for n.rngSrc.Count() < snap.RandDraws {
		n.rngSrc.Uint64()
	}

	n.mu.Lock()
	n.registry = reg
	n.mu.Unlock()
	return nil
}

// snapshotFile is the canonical serializable snapshot form. Up-segment
// stores are per-AS membership lists of segment IDs into the down set:
// beaconing registers the same terminated segment into both the local
// up store and the global down store, and the ID reference restores
// that sharing on load. Encoding is canonical — segments are emitted in
// store order (ID-sorted, a property of pathdb), map keys sort under
// encoding/json — so identical state produces identical bytes.
type snapshotFile struct {
	Version   int                 `json:"version"`
	Seed      int64               `json:"seed"`
	WithPKI   bool                `json:"with_pki"`
	ASes      int                 `json:"ases"`
	Links     int                 `json:"links"`
	RandDraws uint64              `json:"rand_draws"`
	Beacon    BeaconCounters      `json:"beacon_counters"`
	Core      []json.RawMessage   `json:"core_segments"`
	Down      []json.RawMessage   `json:"down_segments"`
	Up        map[string][]string `json:"up_segments"`
}

// WriteFile serializes the snapshot to path in the canonical,
// seed-stamped on-disk form. Trust material and the combination memo
// are omitted: private keys must not leave the process (a loaded
// WithPKI snapshot provisions a fresh PKI), and combinations are
// derivable from the registries.
func (s *Snapshot) WriteFile(path string) error {
	f := snapshotFile{
		Version:   SnapshotVersion,
		Seed:      s.Seed,
		WithPKI:   s.WithPKI,
		ASes:      s.ASes,
		Links:     s.Links,
		RandDraws: s.RandDraws,
		Beacon:    s.Beacon,
		Up:        make(map[string][]string),
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
	for ia, db := range s.Registry.Up {
		segs := db.All()
		if len(segs) == 0 {
			continue
		}
		ids := make([]string, len(segs))
		for i, seg := range segs {
			ids[i] = seg.ID()
		}
		f.Up[ia.String()] = ids
	}
	enc, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// LoadSnapshotFile reads a snapshot written by WriteFile and rebuilds
// the in-memory registries (re-establishing the up/down segment object
// sharing). The result carries no trust material and no combination
// memo; InstallSnapshot provisions and recombines as needed.
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
	reg := &beacon.Registry{
		Up:   make(map[addr.IA]*pathdb.DB),
		Core: pathdb.New(),
		Down: pathdb.New(),
	}
	for _, b := range f.Core {
		seg, err := segment.Decode(b)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot %s: core segment: %w", path, err)
		}
		reg.Core.Insert(seg)
	}
	byID := make(map[string]*segment.Segment, len(f.Down))
	for _, b := range f.Down {
		seg, err := segment.Decode(b)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot %s: down segment: %w", path, err)
		}
		reg.Down.Insert(seg)
		byID[seg.ID()] = seg
	}
	for iaStr, ids := range f.Up {
		ia, err := addr.ParseIA(iaStr)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot %s: up store %q: %w", path, iaStr, err)
		}
		db := pathdb.New()
		for _, id := range ids {
			seg, ok := byID[id]
			if !ok {
				return nil, fmt.Errorf("core: snapshot %s: up segment %s of %s not in down set", path, id, iaStr)
			}
			db.Insert(seg)
		}
		reg.Up[ia] = db
	}
	return &Snapshot{
		Seed:      f.Seed,
		WithPKI:   f.WithPKI,
		ASes:      f.ASes,
		Links:     f.Links,
		RandDraws: f.RandDraws,
		Beacon:    f.Beacon,
		Registry:  reg,
	}, nil
}
