package beacon

import (
	"crypto/x509"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/cppki"
	"sciera/internal/pathdb"
	"sciera/internal/telemetry"
	"sciera/internal/topology"
)

// provisionRunnerPKI issues a signer for every AS in topo (rc1 is the
// single CA). ASes listed in rogue get a chain from a self-signed CA
// that is not anchored in the TRC: their signatures are well-formed but
// unverifiable.
func provisionRunnerPKI(t testing.TB, topo *topology.Topology, rogue ...addr.IA) (SignerProvider, *cppki.Store, time.Time) {
	t.Helper()
	now := time.Unix(1_737_000_000, 0)
	p, err := cppki.ProvisionISD(71, []addr.IA{rc1}, []addr.IA{rc1},
		cppki.ProvisionOptions{NotBefore: now.Add(-time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	caCert, err := x509.ParseCertificate(p.CACerts[rc1].Cert)
	if err != nil {
		t.Fatal(err)
	}
	// An unanchored CA for rogue ASes, from a foreign provisioning run.
	q, err := cppki.ProvisionISD(71, []addr.IA{rc1}, []addr.IA{rc1},
		cppki.ProvisionOptions{NotBefore: now.Add(-time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	rogueCA, err := x509.ParseCertificate(q.CACerts[rc1].Cert)
	if err != nil {
		t.Fatal(err)
	}
	isRogue := func(ia addr.IA) bool {
		for _, r := range rogue {
			if r == ia {
				return true
			}
		}
		return false
	}
	signers := make(map[addr.IA]*cppki.Signer)
	for _, as := range topo.ASes() {
		ca, caKey := caCert, p.CACerts[rc1].Key
		if isRogue(as.IA) {
			ca, caKey = rogueCA, q.CACerts[rc1].Key
		}
		key, _ := cppki.GenerateKey()
		cert, err := cppki.NewASCert(as.IA, key.Public(), ca, caKey, now.Add(-time.Minute), 72*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		signers[as.IA] = &cppki.Signer{IA: as.IA, Key: key, Chain: cppki.Chain{AS: cert, CA: ca}}
	}
	trcs := cppki.NewStore()
	if err := trcs.AddTrusted(p.TRC, now); err != nil {
		t.Fatal(err)
	}
	return func(ia addr.IA) *cppki.Signer { return signers[ia] }, trcs, now
}

// routeIDs is a signature-independent fingerprint of a registry's
// contents (signatures use crypto/rand, so raw bytes differ run to run).
// pathdb.All returns segments in segment-ID order, so no re-sort is
// needed for the fingerprint to be comparable across runs.
func routeIDs(db *pathdb.DB) []string {
	out := make([]string, 0, db.Len())
	for _, s := range db.All() {
		out = append(out, s.RouteID())
	}
	return out
}

func registryFingerprint(reg *Registry) map[string][]string {
	return map[string][]string{
		"core": routeIDs(reg.Core),
		"down": routeIDs(reg.Down),
	}
}

func equalFingerprints(t *testing.T, a, b map[string][]string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("registry key sets differ: %d vs %d", len(a), len(b))
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || len(av) != len(bv) {
			t.Fatalf("registry %s differs: %d vs %d segments", k, len(av), len(bv))
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("registry %s route %d: %s vs %s", k, i, av[i], bv[i])
			}
		}
	}
}

// TestRunnerVerifyOnReceipt: with an honest PKI, verify-on-receipt
// admits exactly the beacons an unverified signed run admits, counts
// every receipt as verified, and observes verification latency.
func TestRunnerVerifyOnReceipt(t *testing.T) {
	topo := runnerTopo(t)
	signers, trcs, now := provisionRunnerPKI(t, topo)

	signedOnly := &Runner{
		Topo: topo, Keys: rkey, Signers: signers,
		Timestamp: uint32(now.Unix()),
	}
	baseline, err := signedOnly.Run()
	if err != nil {
		t.Fatal(err)
	}

	metrics := &RunnerMetrics{VerifyLatency: telemetry.NewHistogram(0.01, 0.1, 1, 10)}
	verified := &Runner{
		Topo: topo, Keys: rkey, Signers: signers,
		TRCs: trcs, Chains: cppki.NewChainCache(), VerifyAt: now,
		Timestamp: uint32(now.Unix()),
		Metrics:   metrics,
	}
	reg, err := verified.Run()
	if err != nil {
		t.Fatal(err)
	}

	equalFingerprints(t, registryFingerprint(baseline), registryFingerprint(reg))
	if metrics.Verified.Load() == 0 {
		t.Error("no beacons counted as verified")
	}
	if got := metrics.VerifyFailed.Load(); got != 0 {
		t.Errorf("honest network had %d verification failures", got)
	}
	if metrics.VerifyLatency.Count() != metrics.Verified.Load()+metrics.VerifyFailed.Load() {
		t.Errorf("latency observations %d != receipts %d",
			metrics.VerifyLatency.Count(), metrics.Verified.Load())
	}
}

// TestRunnerRejectsUnverifiableAS: an AS whose chain is not anchored in
// the TRC can receive beacons (its neighbors' signatures verify) but
// nothing it extends survives verification downstream — propagation
// fails closed at the next hop.
func TestRunnerRejectsUnverifiableAS(t *testing.T) {
	topo := runnerTopo(t)
	signers, trcs, now := provisionRunnerPKI(t, topo, rlA)
	metrics := &RunnerMetrics{}
	r := &Runner{
		Topo: topo, Keys: rkey, Signers: signers,
		TRCs: trcs, Chains: cppki.NewChainCache(), VerifyAt: now,
		Timestamp: uint32(now.Unix()),
		Metrics:   metrics,
	}
	reg, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// rlA itself still receives verified beacons from its honest parent.
	if len(reg.Ups(rlA)) == 0 {
		t.Error("rlA registered no up segments")
	}
	// Its child must reject everything rlA extends.
	sub := addr.MustParseIA("71-20")
	if got := len(reg.Ups(sub)); got != 0 {
		t.Errorf("child of rogue AS registered %d up segments", got)
	}
	if metrics.VerifyFailed.Load() == 0 {
		t.Error("no verification failures recorded for rogue extensions")
	}
	// The unrelated leaf is unaffected.
	if len(reg.Ups(rlB)) == 0 {
		t.Error("rlB lost segments")
	}
}

// BenchmarkSignedBeaconRun compares a full beaconing run over the test
// topology: unsigned, signed (sign-only, the previous campaign mode),
// signed with verify-on-receipt and a per-run chain cache (the cache
// warms within the run — the few distinct chains repeat across many
// receipts), and signed with a cache shared across runs, as campaign
// refreshes share their replica's cache.
func BenchmarkSignedBeaconRun(b *testing.B) {
	topo := runnerTopo(b)
	signers, trcs, now := provisionRunnerPKI(b, topo)

	run := func(b *testing.B, signers SignerProvider, trcs *cppki.Store, chains func() *cppki.ChainCache) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := &Runner{
				Topo: topo, Keys: rkey, Signers: signers,
				TRCs: trcs, VerifyAt: now,
				Timestamp: uint32(now.Unix()),
			}
			if chains != nil {
				r.Chains = chains()
			}
			if _, err := r.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("unsigned", func(b *testing.B) { run(b, nil, nil, nil) })
	b.Run("signed", func(b *testing.B) { run(b, signers, nil, nil) })
	b.Run("signed-verify", func(b *testing.B) { run(b, signers, trcs, cppki.NewChainCache) })
	b.Run("signed-verify-shared", func(b *testing.B) {
		shared := cppki.NewChainCache()
		run(b, signers, trcs, func() *cppki.ChainCache { return shared })
	})
}
