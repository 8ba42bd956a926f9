package beacon

import (
	"bytes"
	"crypto/x509"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/cppki"
	"sciera/internal/pathdb"
	"sciera/internal/scenario"
	_ "sciera/internal/sciera" // registers the "sciera" builtin scenario
	"sciera/internal/scrypto"
	"sciera/internal/segment"
	"sciera/internal/telemetry"
	"sciera/internal/topology"
)

var (
	rc1 = addr.MustParseIA("71-1")
	rc2 = addr.MustParseIA("71-2")
	rc3 = addr.MustParseIA("71-3")
	rlA = addr.MustParseIA("71-10")
	rlB = addr.MustParseIA("71-11")
)

func rkey(ia addr.IA) scrypto.HopKey { return scrypto.DeriveHopKey([]byte(ia.String()), 0) }

func runnerTopo(t testing.TB) *topology.Topology {
	t.Helper()
	topo := topology.New()
	for _, ia := range []addr.IA{rc1, rc2, rc3} {
		if err := topo.AddAS(topology.ASInfo{IA: ia, Core: true}); err != nil {
			t.Fatal(err)
		}
	}
	for _, ia := range []addr.IA{rlA, rlB} {
		if err := topo.AddAS(topology.ASInfo{IA: ia}); err != nil {
			t.Fatal(err)
		}
	}
	link := func(a, b addr.IA, typ topology.LinkType) {
		if _, err := topo.AddLink(topology.LinkEnd{IA: a}, topology.LinkEnd{IA: b}, typ, 5, ""); err != nil {
			t.Fatal(err)
		}
	}
	link(rc1, rc2, topology.LinkCore)
	link(rc2, rc3, topology.LinkCore)
	link(rc1, rc3, topology.LinkCore)
	link(rc1, rlA, topology.LinkParent)
	link(rc3, rlB, topology.LinkParent)
	// A second-level leaf: rlB is also parent of nothing, rlA gets a
	// child to exercise multi-hop down-beaconing.
	sub := addr.MustParseIA("71-20")
	if err := topo.AddAS(topology.ASInfo{IA: sub}); err != nil {
		t.Fatal(err)
	}
	link(rlA, sub, topology.LinkParent)
	return topo
}

func TestRunnerFullCoverage(t *testing.T) {
	topo := runnerTopo(t)
	r := &Runner{
		Topo:      topo,
		Keys:      rkey,
		Timestamp: 500,
	}
	reg, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Every core pair has core segments in both construction directions.
	for _, a := range []addr.IA{rc1, rc2, rc3} {
		for _, b := range []addr.IA{rc1, rc2, rc3} {
			if a == b {
				continue
			}
			if len(reg.Core.Get(a, b)) == 0 {
				t.Errorf("no core segment %v -> %v", a, b)
			}
		}
	}
	// The second-level leaf learned up segments through its parent, and
	// they are two-core-hop segments at least.
	sub := addr.MustParseIA("71-20")
	ups := reg.Ups(sub)
	if len(ups) == 0 {
		t.Fatal("no up segments for the second-level leaf")
	}
	for _, s := range ups {
		if s.LastIA() != sub {
			t.Errorf("up segment ends at %v", s.LastIA())
		}
		if s.Len() < 3 {
			t.Errorf("second-level up segment with %d entries", s.Len())
		}
		if err := s.VerifyMACs(func(ia addr.IA) (scrypto.HopKey, bool) { return rkey(ia), true }); err != nil {
			t.Errorf("MACs: %v", err)
		}
	}
	// Down registry mirrors every up registration.
	if reg.Down.Len() == 0 {
		t.Error("down registry empty")
	}
}

func TestRunnerRespectsLinkState(t *testing.T) {
	topo := runnerTopo(t)
	// Cut rlB's only uplink: no up segments should be built for it.
	for _, l := range topo.LinksOf(rlB) {
		_ = topo.SetLinkUp(l.ID, false)
	}
	r := &Runner{Topo: topo, Keys: rkey, Timestamp: 1}
	reg, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(reg.Ups(rlB)); got != 0 {
		t.Errorf("up segments over a dead link: %d", got)
	}
	// Other ASes unaffected.
	if len(reg.Ups(rlA)) == 0 {
		t.Error("rlA lost segments")
	}
}

func TestRunnerWithSigners(t *testing.T) {
	topo := runnerTopo(t)
	p, err := cppki.ProvisionISD(71, []addr.IA{rc1}, []addr.IA{rc1},
		cppki.ProvisionOptions{NotBefore: time.Now().Add(-time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	caCert, err := x509.ParseCertificate(p.CACerts[rc1].Cert)
	if err != nil {
		t.Fatal(err)
	}
	signers := make(map[addr.IA]*cppki.Signer)
	for _, as := range topo.ASes() {
		key, _ := cppki.GenerateKey()
		cert, err := cppki.NewASCert(as.IA, key.Public(), caCert, p.CACerts[rc1].Key,
			time.Now().Add(-time.Minute), time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		signers[as.IA] = &cppki.Signer{IA: as.IA, Key: key, Chain: cppki.Chain{AS: cert, CA: caCert}}
	}
	r := &Runner{
		Topo:      topo,
		Keys:      rkey,
		Signers:   func(ia addr.IA) *cppki.Signer { return signers[ia] },
		Timestamp: uint32(time.Now().Unix()),
	}
	reg, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	trcs := cppki.NewStore()
	if err := trcs.AddTrusted(p.TRC, time.Now()); err != nil {
		t.Fatal(err)
	}
	for _, s := range append(reg.Core.All(), reg.Down.All()...) {
		if err := s.VerifySignatures(trcs, time.Now()); err != nil {
			t.Fatalf("segment %v signatures: %v", s, err)
		}
	}
}

// eager is the flood Runner.Run replaced, kept as its oracle: the sender
// fully builds every extension (clone, hop MAC, peer MACs, signature)
// reading the topology per candidate, the receiver verifies every
// flight and only then asks its store, and every terminated segment is
// inserted into its registries one at a time. It reads the Runner's
// configuration, writes the same counters and keeps beacons in the same
// Store (which TestStoreInsertMatchesOracle and FuzzStoreAdmit hold to
// their own model).
type eager struct {
	*Runner
	macs      map[addr.IA]*scrypto.CMAC
	verifier  *segment.Verifier
	maxRounds int
}

// upLinksOf, coreASes and children read the topology the way the eager
// flood did, per candidate; the runner reads it once per run (asView).
func upLinksOf(topo *topology.Topology, ia addr.IA) []*topology.Link {
	var out []*topology.Link
	for _, l := range topo.LinksOf(ia) {
		if l.Up() {
			out = append(out, l)
		}
	}
	return out
}

func coreASes(topo *topology.Topology) []addr.IA {
	var out []addr.IA
	for _, as := range topo.ASes() {
		if as.Core {
			out = append(out, as.IA)
		}
	}
	return out
}

func children(topo *topology.Topology, ia addr.IA) []*topology.Link {
	var out []*topology.Link
	for _, l := range topo.LinksOf(ia) {
		if l.Type == topology.LinkParent && l.A.IA == ia {
			out = append(out, l)
		}
	}
	return out
}

type eagerFlight struct {
	seg *segment.Segment
	l   *topology.Link
	to  addr.IA
}

func eagerRun(r *Runner) (*Registry, error) {
	ases := r.Topo.ASes()
	if r.Metrics == nil {
		r.Metrics = &RunnerMetrics{}
	}
	e := &eager{Runner: r, macs: make(map[addr.IA]*scrypto.CMAC, len(ases)), maxRounds: len(ases) + 2}
	if r.TRCs != nil {
		at := r.VerifyAt
		if at.IsZero() {
			at = time.Unix(int64(r.Timestamp), 0)
		}
		e.verifier = &segment.Verifier{TRCs: r.TRCs, Chains: r.Chains, At: at}
	}
	reg := &Registry{Core: pathdb.New(), Down: pathdb.New()}
	for _, as := range ases {
		mac, err := scrypto.NewHopCMAC(r.Keys(as.IA))
		if err != nil {
			return nil, err
		}
		e.macs[as.IA] = mac
	}
	if err := e.runCore(reg); err != nil {
		return nil, err
	}
	if err := e.runDown(reg); err != nil {
		return nil, err
	}
	return reg, nil
}

func (r *eager) sign(seg *segment.Segment, ia addr.IA) error {
	if r.Signers != nil {
		if signer := r.Signers(ia); signer != nil {
			return seg.SignLast(signer)
		}
	}
	return nil
}

func (r *eager) originate(origin addr.IA, l *topology.Link) (*segment.Segment, error) {
	local, _ := l.Local(origin)
	remote, _ := l.Other(origin)
	seg, err := segment.Originate(r.Timestamp, originBeta0(r.macs[origin], r.Timestamp, local.IfID), origin,
		local.IfID, remote.IA, l.LatencyMS, hopExpTime, r.macs[origin])
	if err != nil {
		return nil, err
	}
	return seg, r.sign(seg, origin)
}

// admit verifies flight i's beacon when the run verifies at all,
// counting the outcome.
func (r *eager) admit(seg *segment.Segment) bool {
	if r.verifier == nil {
		return true
	}
	if r.verifier.Verify(seg) != nil {
		r.Metrics.VerifyFailed.Inc()
		return false
	}
	r.Metrics.Verified.Inc()
	return true
}

func (r *eager) pruneGroups(flights []eagerFlight, recvIf []uint16, accepted []bool, groups map[groupKey][]int) {
	k := r.propagateK()
	if k <= 0 {
		return
	}
	for _, idxs := range groups {
		if len(idxs) <= k {
			continue
		}
		entries := make([]*Entry, len(idxs))
		for j, i := range idxs {
			entries[j] = NewEntry(flights[i].seg, recvIf[i])
		}
		keep := make(map[*Entry]bool, k)
		for _, e := range SelectBestK(entries, k) {
			keep[e] = true
		}
		for j, i := range idxs {
			if !keep[entries[j]] {
				accepted[i] = false
				r.Metrics.Pruned.Inc()
			}
		}
	}
}

func (r *eager) extend(seg *segment.Segment, at addr.IA, inIf uint16, out *topology.Link) (*segment.Segment, error) {
	ext := seg.CloneForExtend()
	e := segment.ASEntry{IA: at, Ingress: inIf, ExpTime: hopExpTime}
	if out != nil {
		local, _ := out.Local(at)
		remote, _ := out.Other(at)
		e.Egress = local.IfID
		e.Next = remote.IA
		e.LinkLatencyMS = out.LatencyMS
	}
	if info, ok := r.Topo.AS(at); ok {
		e.MTU = info.MTU
	}
	if err := ext.Extend(e, r.macs[at]); err != nil {
		return nil, err
	}
	appended := &ext.ASEntries[len(ext.ASEntries)-1]
	for _, pl := range upLinksOf(r.Topo, at) {
		if pl.Type != topology.LinkPeer {
			continue
		}
		local, _ := pl.Local(at)
		remote, _ := pl.Other(at)
		appended.Peers = append(appended.Peers, segment.PeerEntry{
			Peer:          remote.IA,
			PeerIf:        remote.IfID,
			LocalIf:       local.IfID,
			LinkLatencyMS: pl.LatencyMS,
			ExpTime:       hopExpTime,
			MAC: scrypto.HopMAC(r.macs[at], scrypto.HopMACInput{
				Beta:        ext.BetaFinal(),
				Timestamp:   ext.Timestamp,
				ExpTime:     hopExpTime,
				ConsIngress: local.IfID,
				ConsEgress:  appended.Egress,
			}),
		})
	}
	return ext, r.sign(ext, at)
}

func (r *eager) runCore(reg *Registry) error {
	cores := coreASes(r.Topo)
	stores := make(map[addr.IA]*Store, len(cores))
	for _, ia := range cores {
		stores[ia] = NewStore(r.BestPerOrigin)
	}
	commercial := func(ia addr.IA) bool {
		info, ok := r.Topo.AS(ia)
		return ok && info.Commercial
	}
	var flights []eagerFlight
	for _, origin := range cores {
		for _, l := range upLinksOf(r.Topo, origin) {
			if l.Type != topology.LinkCore {
				continue
			}
			seg, err := r.originate(origin, l)
			if err != nil {
				return err
			}
			r.Metrics.Originated.Inc()
			other, _ := l.Other(origin)
			flights = append(flights, eagerFlight{seg: seg, l: l, to: other.IA})
		}
	}
	for round := 0; round < r.maxRounds && len(flights) > 0; round++ {
		accepted := make([]bool, len(flights))
		recvIf := make([]uint16, len(flights))
		groups := make(map[groupKey][]int)
		for i, f := range flights {
			inEnd, _ := f.l.Other(f.seg.ASEntries[len(f.seg.ASEntries)-1].IA)
			if inEnd.IA != f.to {
				return fmt.Errorf("beacon: internal: flight misrouted")
			}
			recvIf[i] = inEnd.IfID
			if !r.admit(f.seg) {
				continue
			}
			if !stores[f.to].Insert(f.seg, inEnd.IfID) {
				r.Metrics.Filtered.Inc()
				continue
			}
			accepted[i] = true
			groups[groupKey{f.to, f.seg.FirstIA()}] = append(groups[groupKey{f.to, f.seg.FirstIA()}], i)
		}
		r.pruneGroups(flights, recvIf, accepted, groups)
		var next []eagerFlight
		for i, f := range flights {
			if !accepted[i] {
				continue
			}
			for _, l := range upLinksOf(r.Topo, f.to) {
				if l.Type != topology.LinkCore || l.ID == f.l.ID {
					continue
				}
				other, _ := l.Other(f.to)
				if f.seg.ContainsIA(other.IA) {
					r.Metrics.Filtered.Inc()
					continue
				}
				if commercial(f.seg.FirstIA()) && commercial(other.IA) {
					r.Metrics.Filtered.Inc()
					continue
				}
				ext, err := r.extend(f.seg, f.to, recvIf[i], l)
				if err != nil {
					return err
				}
				r.Metrics.Propagated.Inc()
				next = append(next, eagerFlight{seg: ext, l: l, to: other.IA})
			}
		}
		flights = next
	}
	for ia, store := range stores {
		for _, es := range store.All() {
			for _, e := range es {
				term, err := r.extend(e.Seg, ia, e.RecvIf, nil)
				if err != nil {
					return err
				}
				r.Metrics.Registered.Inc()
				reg.Core.Insert(term)
			}
		}
	}
	return nil
}

func (r *eager) runDown(reg *Registry) error {
	var flights []eagerFlight
	stores := make(map[addr.IA]*Store)
	for _, as := range r.Topo.ASes() {
		if !as.Core {
			stores[as.IA] = NewStore(r.BestPerOrigin)
		}
	}
	for _, origin := range coreASes(r.Topo) {
		for _, l := range children(r.Topo, origin) {
			if !r.Topo.LinkUp(l.ID) {
				r.Metrics.Filtered.Inc()
				continue
			}
			seg, err := r.originate(origin, l)
			if err != nil {
				return err
			}
			r.Metrics.Originated.Inc()
			flights = append(flights, eagerFlight{seg: seg, l: l, to: l.B.IA})
		}
	}
	for round := 0; round < r.maxRounds && len(flights) > 0; round++ {
		accepted := make([]bool, len(flights))
		recvIf := make([]uint16, len(flights))
		groups := make(map[groupKey][]int)
		for i, f := range flights {
			local, _ := f.l.Local(f.to)
			recvIf[i] = local.IfID
			if !r.admit(f.seg) {
				continue
			}
			if !stores[f.to].Insert(f.seg, local.IfID) {
				r.Metrics.Filtered.Inc()
				continue
			}
			accepted[i] = true
			groups[groupKey{f.to, f.seg.FirstIA()}] = append(groups[groupKey{f.to, f.seg.FirstIA()}], i)
		}
		r.pruneGroups(flights, recvIf, accepted, groups)
		var next []eagerFlight
		for i, f := range flights {
			if !accepted[i] {
				continue
			}
			for _, l := range children(r.Topo, f.to) {
				if !r.Topo.LinkUp(l.ID) {
					r.Metrics.Filtered.Inc()
					continue
				}
				if f.seg.ContainsIA(l.B.IA) {
					r.Metrics.Filtered.Inc()
					continue
				}
				ext, err := r.extend(f.seg, f.to, recvIf[i], l)
				if err != nil {
					return err
				}
				r.Metrics.Propagated.Inc()
				next = append(next, eagerFlight{seg: ext, l: l, to: l.B.IA})
			}
		}
		flights = next
	}
	for ia, store := range stores {
		for _, es := range store.All() {
			for _, e := range es {
				term, err := r.extend(e.Seg, ia, e.RecvIf, nil)
				if err != nil {
					return err
				}
				r.Metrics.Registered.Inc()
				reg.Down.Insert(term)
			}
		}
	}
	return nil
}

// sameStore requires two segment stores to hold the same segment IDs
// with the same encoded bytes.
func sameStore(t *testing.T, when, name string, got, want *pathdb.DB) {
	t.Helper()
	g, w := got.All(), want.All()
	if len(g) != len(w) {
		t.Fatalf("%s: %s holds %d segments, oracle %d", when, name, len(g), len(w))
	}
	for i := range g {
		if g[i].ID() != w[i].ID() {
			t.Fatalf("%s: %s segment %d is %s, oracle %s", when, name, i, g[i].ID(), w[i].ID())
		}
		gb, _ := g[i].Encode()
		wb, _ := w[i].Encode()
		if !bytes.Equal(gb, wb) {
			t.Fatalf("%s: %s segment %s encodes differently:\n%s\n%s", when, name, g[i].ID(), gb, wb)
		}
	}
}

func sameRegistry(t *testing.T, when string, got, want *Registry) {
	t.Helper()
	sameStore(t, when, "Core", got.Core, want.Core)
	sameStore(t, when, "Down", got.Down, want.Down)
}

// floodCounters are the five counters both floods must agree on.
func floodCounters(m *RunnerMetrics) [5]uint64 {
	return [5]uint64{m.Originated.Load(), m.Propagated.Load(), m.Filtered.Load(), m.Pruned.Load(), m.Registered.Load()}
}

// TestFloodMatchesEagerOracle holds the admit-before-extend flood to the
// eager one it replaced: byte-identical Core and Down stores and equal Originated/Propagated/Filtered/Pruned/
// Registered — on the SCIERA topology, a 60-AS generated one and the
// benchmark's 200-AS churn topology, each with commercial cores, across
// a seeded sequence of core and parent link flaps, at three store
// bounds, with the default propagation bound and one small enough to
// prune.
func TestFloodMatchesEagerOracle(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		flaps int
	}{
		{"sciera", 6},
		{"gen:isds=3,ases=60,seed=1", 6},
		{"gen:isds=3,ases=200,cores=8,seed=1", 2},
	} {
		sc, err := scenario.Resolve(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		cores := 0
		for i := range sc.ASes {
			if sc.ASes[i].Core {
				sc.ASes[i].Commercial = cores%2 == 0
				cores++
			}
		}
		topo, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		var flappable []*topology.Link
		for _, l := range topo.Links() {
			if l.Type != topology.LinkPeer {
				flappable = append(flappable, l)
			}
		}
		rng := rand.New(rand.NewSource(5))
		var pruned uint64
		for step := 0; step <= tc.flaps; step++ {
			if step > 0 {
				l := flappable[rng.Intn(len(flappable))]
				if err := topo.SetLinkUp(l.ID, !l.Up()); err != nil {
					t.Fatal(err)
				}
			}
			for _, best := range []int{1, 4, 16} {
				for _, k := range []int{0, 2} {
					when := fmt.Sprintf("%s step %d best=%d k=%d", tc.spec, step, best, k)
					run := func(flood func(*Runner) (*Registry, error)) (*Registry, *RunnerMetrics) {
						r := &Runner{Topo: topo, Keys: rkey, Timestamp: 1000, BestPerOrigin: best,
							PropagateBestK: k, Metrics: &RunnerMetrics{}}
						reg, err := flood(r)
						if err != nil {
							t.Fatalf("%s: %v", when, err)
						}
						return reg, r.Metrics
					}
					got, gm := run((*Runner).Run)
					want, wm := run(eagerRun)
					sameRegistry(t, when, got, want)
					if g, w := floodCounters(gm), floodCounters(wm); g != w {
						t.Fatalf("%s: originated/propagated/filtered/pruned/registered %v, oracle %v", when, g, w)
					}
					if got.Core.Len() == 0 || got.Down.Len() == 0 {
						t.Fatalf("%s: empty registry (%d core, %d down)", when, got.Core.Len(), got.Down.Len())
					}
					pruned += gm.Pruned.Load()
				}
			}
		}
		if pruned == 0 {
			t.Errorf("%s: no run pruned a beacon; the small propagation bound is not exercised", tc.spec)
		}
	}
}

// TestSignedFloodMatchesEagerOracle: under the PKI the flood signs and
// verifies only what a store admits, the oracle everything.
// Both register the same routes with no verification failure and agree
// on the five flood counters (a refused candidate is Filtered either
// way); the flood verifies fewer beacons, never more. With a signer
// whose chain the TRC does not anchor, both still drop all it extends.
func TestSignedFloodMatchesEagerOracle(t *testing.T) {
	topo := runnerTopo(t)
	run := func(flood func(*Runner) (*Registry, error), signers SignerProvider, trcs *cppki.Store, now time.Time) (*Registry, *RunnerMetrics) {
		r := &Runner{
			Topo: topo, Keys: rkey, Signers: signers, BestPerOrigin: 1,
			TRCs: trcs, Chains: cppki.NewChainCache(), VerifyAt: now,
			Timestamp: uint32(now.Unix()),
			Metrics:   &RunnerMetrics{VerifyLatency: telemetry.NewHistogram(0.01, 0.1, 1, 10)},
		}
		reg, err := flood(r)
		if err != nil {
			t.Fatal(err)
		}
		return reg, r.Metrics
	}
	signers, trcs, now := provisionRunnerPKI(t, topo)
	got, gm := run((*Runner).Run, signers, trcs, now)
	want, wm := run(eagerRun, signers, trcs, now)
	equalFingerprints(t, registryFingerprint(want), registryFingerprint(got))
	if g, w := floodCounters(gm), floodCounters(wm); g != w {
		t.Errorf("originated/propagated/filtered/pruned/registered %v, oracle %v", g, w)
	}
	if gm.VerifyFailed.Load() != 0 || wm.VerifyFailed.Load() != 0 {
		t.Errorf("honest network: %d verification failures, oracle %d", gm.VerifyFailed.Load(), wm.VerifyFailed.Load())
	}
	if g, w := gm.Verified.Load(), wm.Verified.Load(); g == 0 || g >= w {
		t.Errorf("verified %d beacons, oracle %d: want fewer (admissible only), not none", g, w)
	}
	if gm.VerifyLatency.Count() != gm.Verified.Load() {
		t.Errorf("%d latency observations for %d verified beacons", gm.VerifyLatency.Count(), gm.Verified.Load())
	}

	signers, trcs, now = provisionRunnerPKI(t, topo, rlA)
	got, gm = run((*Runner).Run, signers, trcs, now)
	want, _ = run(eagerRun, signers, trcs, now)
	equalFingerprints(t, registryFingerprint(want), registryFingerprint(got))
	if n := len(got.Ups(addr.MustParseIA("71-20"))); n != 0 || gm.VerifyFailed.Load() == 0 {
		t.Errorf("child of the rogue signer registered %d up segments with %d verification failures", n, gm.VerifyFailed.Load())
	}
}
