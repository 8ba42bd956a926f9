package beacon

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/cppki"
	"sciera/internal/pathdb"
	"sciera/internal/scenario"
	"sciera/internal/scrypto"
	"sciera/internal/segment"
	"sciera/internal/topology"
)

// warmChain is a topology under a sequence of link events, refreshed
// after each by a run that starts from the previous run's registry
// (RunFrom) and, beside it, by a cold Run on the same link state: the
// cold run is the oracle of the warm one.
type warmChain struct {
	t       *testing.T
	topo    *topology.Topology
	best    int
	signers SignerProvider // nil: unsigned, unverified
	trcs    *cppki.Store
	now     time.Time

	reg   *Registry // what the last warm run published
	grown int
	// stamp is how far the chain's timestamp has advanced.
	stamp uint32
	// reused and verifiedWarm/verifiedCold accumulate over the chain.
	reused, verifiedWarm, verifiedCold uint64
}

func (c *warmChain) runner() *Runner {
	r := &Runner{Topo: c.topo, Keys: rkey, Timestamp: 1000, BestPerOrigin: c.best, Metrics: &RunnerMetrics{}}
	if c.signers != nil {
		r.Signers, r.TRCs, r.Chains, r.VerifyAt = c.signers, c.trcs, cppki.NewChainCache(), c.now
		r.Timestamp = uint32(c.now.Unix())
	}
	r.Timestamp += c.stamp
	return r
}

// encoded is a segment's bytes; on a signed chain, with its signatures
// stripped: ECDSA signatures draw from crypto/rand, so two honest signers
// of one entry never agree on them. Everything else is a function of
// the route.
func (c *warmChain) encoded(s *segment.Segment) []byte {
	c.t.Helper()
	if c.signers != nil {
		s = s.Clone()
		for i := range s.ASEntries {
			s.ASEntries[i].Signature = nil
		}
	}
	b, err := s.Encode()
	if err != nil {
		c.t.Fatal(err)
	}
	return b
}

func storeIDs(db *pathdb.DB) []string {
	var out []string
	db.Visit(0, 0, func(id string, _ *segment.Segment) { out = append(out, id) })
	return out
}

// sameContent requires two stores to hold the same segment IDs, in Get
// order, with the same bytes (signatures aside when signed).
func (c *warmChain) sameContent(when, name string, got, want *pathdb.DB) {
	c.t.Helper()
	g, w := got.All(), want.All()
	if len(g) != len(w) {
		c.t.Fatalf("%s: %s holds %d segments, cold run %d", when, name, len(g), len(w))
	}
	for i := range g {
		if g[i].ID() != w[i].ID() {
			c.t.Fatalf("%s: %s segment %d is %s, cold run %s", when, name, i, g[i].ID(), w[i].ID())
		}
		if gb, wb := c.encoded(g[i]), c.encoded(w[i]); !bytes.Equal(gb, wb) {
			c.t.Fatalf("%s: %s segment %s encodes differently:\n%s\n%s", when, name, g[i].ID(), gb, wb)
		}
	}
}

// refresh runs warm from the last registry and cold from nothing, and
// holds the warm registry and counters to the cold ones. keptHolds says
// the event before it was a link flap of a kind no beacon's bytes depend
// on, so the kept map and every store whose ID set did not move must
// have been carried over.
func (c *warmChain) refresh(when string, keptHolds bool) {
	c.t.Helper()
	prev := c.reg
	var prevIDs map[*pathdb.DB][]string
	if prev != nil {
		prevIDs = map[*pathdb.DB][]string{prev.Core: storeIDs(prev.Core), prev.Down: storeIDs(prev.Down)}
	}
	warm, cold := c.runner(), c.runner()
	got, err := warm.RunFrom(prev)
	if err != nil {
		c.t.Fatalf("%s: warm: %v", when, err)
	}
	want, err := cold.Run()
	if err != nil {
		c.t.Fatalf("%s: cold: %v", when, err)
	}
	c.reg = got
	// The cold run shares the flood's admission code with the warm one;
	// the build-everything flood does not.
	if c.signers == nil {
		eager := c.runner()
		oracle, err := eagerRun(eager)
		if err != nil {
			c.t.Fatalf("%s: eager: %v", when, err)
		}
		sameRegistry(c.t, when+" (cold run against the eager flood)", want, oracle)
		if g, w := floodCounters(cold.Metrics), floodCounters(eager.Metrics); g != w {
			c.t.Fatalf("%s: cold run counters %v, eager flood %v", when, g, w)
		}
	}

	c.sameContent(when, "Core", got.Core, want.Core)
	c.sameContent(when, "Down", got.Down, want.Down)
	wm, cm := warm.Metrics, cold.Metrics
	if g, w := floodCounters(wm), floodCounters(cm); g != w {
		c.t.Fatalf("%s: originated/propagated/filtered/pruned/registered %v, cold run %v", when, g, w)
	}
	if cm.Reused.Load() != 0 {
		c.t.Fatalf("%s: cold run reused %d beacons", when, cm.Reused.Load())
	}
	if g, w := wm.Built.Load()+wm.Reused.Load(), cm.Built.Load(); g != w {
		c.t.Fatalf("%s: warm built %d + reused %d, cold built %d", when, wm.Built.Load(), wm.Reused.Load(), w)
	}
	if wm.VerifyFailed.Load() != cm.VerifyFailed.Load() {
		c.t.Fatalf("%s: %d verification failures, cold run %d: a failed beacon was kept", when, wm.VerifyFailed.Load(), cm.VerifyFailed.Load())
	}
	if wm.Verified.Load() > cm.Verified.Load() {
		c.t.Fatalf("%s: warm verified %d beacons, cold %d", when, wm.Verified.Load(), cm.Verified.Load())
	}
	c.reused += wm.Reused.Load()
	c.verifiedWarm += wm.Verified.Load()
	c.verifiedCold += cm.Verified.Load()

	if prev == nil {
		return
	}
	// The registry a reader holds is never modified, and a store is
	// carried over exactly when its ID set did not move.
	check := func(name string, was, is *pathdb.DB) {
		c.t.Helper()
		if !slices.Equal(storeIDs(was), prevIDs[was]) {
			c.t.Fatalf("%s: the previous registry's %s changed under its readers", when, name)
		}
		same := slices.Equal(prevIDs[was], storeIDs(is))
		if was == is && !same {
			c.t.Fatalf("%s: %s kept as it was, but its ID set moved", when, name)
		}
		if keptHolds && same && (was != is || was.Stamp() != is.Stamp()) {
			c.t.Fatalf("%s: %s holds the same IDs but is a new store", when, name)
		}
		if !same && was.Stamp() == is.Stamp() {
			c.t.Fatalf("%s: %s changed and kept its stamp", when, name)
		}
	}
	check("Core", prev.Core, got.Core)
	check("Down", prev.Down, got.Down)
	if keptHolds && wm.Reused.Load() == 0 {
		c.t.Fatalf("%s: nothing reused after a link flap", when)
	}
}

// linksOf lists the topology's links of one type.
func (c *warmChain) linksOf(typ topology.LinkType) []*topology.Link {
	var out []*topology.Link
	for _, l := range c.topo.Links() {
		if l.Type == typ {
			out = append(out, l)
		}
	}
	return out
}

func (c *warmChain) nonCore() []addr.IA {
	var out []addr.IA
	for _, as := range c.topo.ASes() {
		if !as.Core {
			out = append(out, as.IA)
		}
	}
	return out
}

// flap flips the pick-th link of a type; it reports whether the kept map
// must survive the event (any flap but a peering link's).
func (c *warmChain) flap(typ topology.LinkType, pick int) (what string, keptHolds bool) {
	links := c.linksOf(typ)
	l := links[pick%len(links)]
	if err := c.topo.SetLinkUp(l.ID, !l.Up()); err != nil {
		c.t.Fatal(err)
	}
	return fmt.Sprintf("link %d (type %d) up=%v", l.ID, typ, l.Up()), typ != topology.LinkPeer
}

// grow attaches a new leaf AS under the pick-th non-core AS, as
// core.Network.AttachAS does to the topology.
func (c *warmChain) grow(pick int) (string, bool) {
	parents := c.nonCore()
	parent := parents[pick%len(parents)]
	c.grown++
	ia := addr.MustIA(parent.ISD(), addr.AS(0xff00_0000+c.grown))
	if err := c.topo.AddAS(topology.ASInfo{IA: ia, Name: "grown"}); err != nil {
		c.t.Fatal(err)
	}
	if _, err := c.topo.AddLink(topology.LinkEnd{IA: parent}, topology.LinkEnd{IA: ia}, topology.LinkParent, 3, ""); err != nil {
		c.t.Fatal(err)
	}
	return fmt.Sprintf("attach %v under %v", ia, parent), true
}

// peer adds a peering link between two non-core ASes: both now advertise
// a peer entry they did not, so nothing kept may be reused.
func (c *warmChain) peer(pick int) (string, bool) {
	leaves := c.nonCore()
	a, b := leaves[pick%len(leaves)], leaves[(pick+1)%len(leaves)]
	if _, err := c.topo.AddLink(topology.LinkEnd{IA: a}, topology.LinkEnd{IA: b}, topology.LinkPeer, 4, ""); err != nil {
		c.t.Fatal(err)
	}
	return fmt.Sprintf("peer %v-%v", a, b), false
}

func newWarmChain(t *testing.T, spec string, best int, pki bool, rogue ...addr.IA) *warmChain {
	t.Helper()
	var topo *topology.Topology
	if spec == "runner" {
		topo = runnerTopo(t)
	} else {
		sc, err := scenario.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		if topo, err = sc.Build(); err != nil {
			t.Fatal(err)
		}
	}
	c := &warmChain{t: t, topo: topo, best: best}
	c.peer(0)
	c.peer(3)
	if pki {
		c.signers, c.trcs, c.now = provisionRunnerPKI(t, topo, rogue...)
	}
	return c
}

// TestWarmRefreshMatchesColdRun is the oracle of RunFrom: after any
// seeded sequence of core, parent and peer link flaps, an attached AS
// and a new peering link, the registry a run builds from what the
// previous run kept equals the one a cold Run builds on the same link
// state — IDs, Get order and encoded bytes of Core and Down —
// with equal Originated/Propagated/Filtered/Pruned/Registered, and warm
// Built + Reused equal to cold Built. On the SCIERA topology, a 60-AS
// generated one and the benchmark's churn topology, at three store
// bounds; signed and verified on the two single-ISD topologies the test
// PKI can provision (bytes compared with signatures stripped: ECDSA is
// randomized), where a warm run verifies no more beacons than a cold one
// and, with a signer the TRC does not anchor, fails exactly the ones a
// cold run fails — a beacon that failed verification is never kept.
// Meanwhile a reader resolves paths on whichever registry is published
// (the race detector's part of the test).
func TestWarmRefreshMatchesColdRun(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		steps int
		pki   bool
		rogue []addr.IA
	}{
		{"sciera", 12, false, nil},
		{"gen:isds=3,ases=60,seed=1", 12, false, nil},
		{"gen:isds=3,ases=200,cores=8,seed=1", 5, false, nil},
		{"runner", 10, true, nil},
		{"runner", 10, true, []addr.IA{rlA}},
		{"sciera", 6, true, nil},
	} {
		for _, best := range []int{1, 4, 16} {
			name := fmt.Sprintf("%s/pki=%v/rogue=%d/best=%d", tc.spec, tc.pki, len(tc.rogue), best)
			t.Run(name, func(t *testing.T) {
				if testing.Short() && tc.steps < 10 {
					t.Skip("large topology")
				}
				c := newWarmChain(t, tc.spec, best, tc.pki, tc.rogue...)
				c.refresh("converge", false)

				var published atomic.Pointer[Registry]
				published.Store(c.reg)
				leaves := c.nonCore()
				stop := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
							published.Load().Paths(leaves[i%len(leaves)], leaves[(i+1)%len(leaves)])
						}
					}
				}()
				defer func() { close(stop); wg.Wait() }()

				rng := rand.New(rand.NewSource(int64(best)))
				for step := 1; step <= tc.steps; step++ {
					var what string
					var holds bool
					switch k := rng.Intn(10); {
					case step == 3:
						what, holds = c.grow(rng.Intn(64))
					case step == 7:
						what, holds = c.peer(rng.Intn(64))
					case k < 4:
						what, holds = c.flap(topology.LinkCore, rng.Intn(1<<16))
					case k < 8:
						what, holds = c.flap(topology.LinkParent, rng.Intn(1<<16))
					default:
						what, holds = c.flap(topology.LinkPeer, rng.Intn(1<<16))
					}
					c.refresh(fmt.Sprintf("step %d: %s", step, what), holds)
					published.Store(c.reg)
				}
				if c.reused == 0 {
					t.Error("no run of the chain reused a beacon")
				}
				if tc.pki && c.verifiedWarm >= c.verifiedCold {
					t.Errorf("warm runs verified %d beacons, cold runs %d: want fewer", c.verifiedWarm, c.verifiedCold)
				}
				var kept []*segment.Segment
				for _, g := range c.reg.kept.groups {
					for j := range g.in {
						if e := g.in[j].stored(); e != nil {
							kept = append(kept, e.Seg)
						}
					}
				}
				for stored := range c.reg.kept.terms {
					kept = append(kept, stored)
				}
				for _, seg := range kept {
					for _, r := range tc.rogue {
						if seg.ContainsIA(r) {
							t.Errorf("kept beacon %s carries an entry of %v, whose signature cannot verify", seg.ID(), r)
						}
					}
				}
			})
		}
	}
}

// TestRefreshPastMaskWidth floods a 66-AS core clique, where every
// receiver has 65 core links — more than the mask recording where a
// survivor went holds — cold and warm across a core flap, against the
// cold run and the eager flood (refresh checks both).
func TestRefreshPastMaskWidth(t *testing.T) {
	c := newWarmChain(t, "gen:isds=1,ases=69,cores=66,seed=1", 1, false)
	c.refresh("converge", false)
	l := c.linksOf(topology.LinkCore)[0]
	for _, up := range []bool{false, true} {
		if err := c.topo.SetLinkUp(l.ID, up); err != nil {
			t.Fatal(err)
		}
		c.refresh(fmt.Sprintf("link %d up=%v", l.ID, up), true)
	}
}

// TestRunFromIgnoresStaleKept: a registry kept under one timestamp,
// verification instant, trust store, signer set or key set is not a
// source of beacons for a run under another — that run is cold, and
// right — while with nothing moved it is a source of everything.
func TestRunFromIgnoresStaleKept(t *testing.T) {
	for _, tc := range []struct {
		name   string
		pki    bool
		change func(r *Runner)
	}{
		{"timestamp", false, func(r *Runner) { r.Timestamp++ }},
		{"keys", false, func(r *Runner) {
			r.Keys = func(ia addr.IA) scrypto.HopKey { return scrypto.DeriveHopKey([]byte("other-"+ia.String()), 0) }
		}},
		{"verify-at", true, func(r *Runner) { r.VerifyAt = r.VerifyAt.Add(time.Second) }},
		{"unverified", true, func(r *Runner) { r.TRCs = nil }},
		{"trc replaced in the store", true, func(r *Runner) {
			foreign, err := cppki.ProvisionISD(71, []addr.IA{rc1}, []addr.IA{rc1},
				cppki.ProvisionOptions{NotBefore: r.VerifyAt.Add(-time.Hour)})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.TRCs.AddTrusted(foreign.TRC, r.VerifyAt); err != nil {
				t.Fatal(err)
			}
		}},
		{"unsigned", true, func(r *Runner) { r.Signers, r.TRCs = nil, nil }},
	} {
		c := newWarmChain(t, "runner", 4, tc.pki)
		c.refresh("converge", false)
		base := c.reg

		same := c.runner()
		if _, err := same.RunFrom(base); err != nil {
			t.Fatal(err)
		}
		if same.Metrics.Built.Load() != 0 || same.Metrics.Verified.Load() != 0 || same.Metrics.Reused.Load() == 0 {
			t.Errorf("nothing moved: built %d, verified %d, reused %d",
				same.Metrics.Built.Load(), same.Metrics.Verified.Load(), same.Metrics.Reused.Load())
		}

		warm, cold := c.runner(), c.runner()
		tc.change(warm)
		tc.change(cold)
		got, err := warm.RunFrom(base)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.Run()
		if err != nil {
			t.Fatal(err)
		}
		if n := warm.Metrics.Reused.Load(); n != 0 {
			t.Errorf("%s changed: %d beacons reused", tc.name, n)
		}
		if got.Core == base.Core || got.Down == base.Down {
			t.Errorf("%s changed: a store of the stale registry was carried over", tc.name)
		}
		equalFingerprints(t, registryFingerprint(want), registryFingerprint(got))
		if !tc.pki {
			sameRegistry(t, tc.name+" changed", got, want)
		}
		if g, w := floodCounters(warm.Metrics), floodCounters(cold.Metrics); g != w {
			t.Errorf("%s changed: counters %v, cold run %v", tc.name, g, w)
		}
	}
}

// redecided holds the run that published c.reg, started from prev, to
// the cold run on the same topology: it re-decides no more candidates,
// and the cold run re-decides every one it put in flight. It returns
// the run's counters.
func (c *warmChain) redecided(when string, prev *Registry) *RunnerMetrics {
	c.t.Helper()
	warm, cold := c.runner(), c.runner()
	if _, err := warm.RunFrom(prev); err != nil {
		c.t.Fatal(err)
	}
	if _, err := cold.Run(); err != nil {
		c.t.Fatal(err)
	}
	w, cm := warm.Metrics.Redecided.Load(), cold.Metrics
	if all := cm.Originated.Load() + cm.Propagated.Load(); cm.Redecided.Load() != all {
		c.t.Fatalf("%s: a cold run re-decided %d of %d candidates", when, cm.Redecided.Load(), all)
	}
	if w > cm.Redecided.Load() {
		c.t.Fatalf("%s: re-decided %d candidates, a cold run %d", when, w, cm.Redecided.Load())
	}
	return warm.Metrics
}

// TestRedecidedCountsDecisions: a cold run puts every candidate to
// admission (Redecided = Originated + Propagated); a refresh after one
// core flap replays most of them, and runs the rest.
func TestRedecidedCountsDecisions(t *testing.T) {
	c := newWarmChain(t, "gen:isds=3,ases=200,cores=8,seed=1", 4, false)
	c.refresh("converge", false)
	what, _ := c.flap(topology.LinkCore, 5)
	m := c.redecided(what, c.reg)
	if r, all := m.Redecided.Load(), m.Originated.Load()+m.Propagated.Load(); r == 0 || r >= all {
		t.Fatalf("%s: re-decided %d of %d candidates", what, r, all)
	}
}

// TestReoriginationRedecidesOneOrigin: a run that finds no round-0
// records of one origin in what the last run kept builds that origin's
// beacons anew, which is what re-originating that origin alone looks
// like to it; by pointer identity exactly the origin's groups are then
// dirty. On the churn topology, for each of its 24 origins, the run
// equals a cold run byte for byte, with the same flood counters and
// warm Built + Reused = cold Built, and re-decides at least one and at
// most the origin's share of the cold run's candidates.
func TestReoriginationRedecidesOneOrigin(t *testing.T) {
	c := newWarmChain(t, "gen:isds=3,ases=200,cores=8,seed=1", 4, false)
	c.refresh("converge", false)
	cold := c.runner()
	want, err := cold.Run()
	if err != nil {
		t.Fatal(err)
	}
	share := make(map[addr.IA]uint64)
	for id, g := range want.kept.groups {
		share[id.origin] += uint64(len(g.in))
	}
	if len(share) != 24 {
		t.Fatalf("%d origins, want 24", len(share))
	}
	for origin, most := range share {
		k := *c.reg.kept
		k.groups = maps.Clone(k.groups)
		for id := range k.groups {
			if id.origin == origin && id.round == 0 {
				delete(k.groups, id)
			}
		}
		warm := c.runner()
		got, err := warm.RunFrom(&Registry{Core: c.reg.Core, Down: c.reg.Down, kept: &k})
		if err != nil {
			t.Fatal(err)
		}
		when := fmt.Sprintf("%v re-originated", origin)
		sameRegistry(t, when, got, want)
		wm, cm := warm.Metrics, cold.Metrics
		if g, w := floodCounters(wm), floodCounters(cm); g != w {
			t.Fatalf("%s: counters %v, cold run %v", when, g, w)
		}
		if g, w := wm.Built.Load()+wm.Reused.Load(), cm.Built.Load(); g != w {
			t.Fatalf("%s: built %d + reused %d, cold built %d", when, wm.Built.Load(), wm.Reused.Load(), w)
		}
		if r := wm.Redecided.Load(); r == 0 || r > most {
			t.Fatalf("%s: re-decided %d candidates, its share of a cold run %d of %d", when, r, most, cm.Redecided.Load())
		}
	}
}

// FuzzRefreshAfterFlaps is TestWarmRefreshMatchesColdRun driven by
// bytes: the first picks the store bound (its low two bits) and after
// which event the chain's timestamp advances, so that every origin
// re-originates (its top four: 1-based, 0 for never), each later one an
// event — its top two bits the kind (core, parent, peer flap; attach or
// new peering), the rest which link or AS — on a 14-AS two-ISD topology
// with two peering links. After every event the refresh also
// re-decides no more candidates than the cold run, and Paths for four
// fixed leaf pairs — memoized on every registry of the chain, so each
// refresh starts from the last one's entries — equals a fresh
// combination.
func FuzzRefreshAfterFlaps(f *testing.F) {
	f.Add([]byte{1, 0x00, 0x40, 0x80, 0xc0, 0xe0}) // one event of each kind; testdata/fuzz holds the rest
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 17 {
			data = data[:17]
		}
		c := newWarmChain(t, "gen:isds=2,ases=14,cores=2,seed=1", 1+int(data[0]%4), false)
		c.refresh("converge", false)
		leaves := c.nonCore()
		pairs := [][2]addr.IA{{leaves[0], leaves[1]}, {leaves[1], leaves[0]}, {leaves[2], leaves[7]}, {leaves[9], leaves[3]}}
		paths := func(when string) {
			for _, p := range pairs {
				pathsAsFresh(t, when, c.reg, p[0], p[1])
			}
		}
		paths("converge")
		for i, b := range data[1:] {
			prev := c.reg
			var what string
			var holds bool
			switch pick := int(b & 0x3f); b >> 6 {
			case 0:
				what, holds = c.flap(topology.LinkCore, pick)
			case 1:
				what, holds = c.flap(topology.LinkParent, pick)
			case 2:
				what, holds = c.flap(topology.LinkPeer, pick)
			default:
				if pick < 32 {
					what, holds = c.grow(pick)
				} else {
					what, holds = c.peer(pick)
				}
			}
			when := fmt.Sprintf("event %d (%#02x): %s", i, b, what)
			c.refresh(when, holds)
			c.redecided(when, prev)
			paths(when)
			if i+1 == int(data[0]>>4) {
				prev, when = c.reg, fmt.Sprintf("after event %d: re-stamp", i)
				c.stamp++
				c.refresh(when, false)
				c.redecided(when, prev)
				paths(when)
			}
		}
	})
}

// TestBeta0Derivation: a PCB's initial accumulator is a function of the
// origin's hop key, the timestamp and the egress interface — it differs
// when any of them does (the key is what a network seed derives), never
// between two runs, and every segment a run registers carries it.
func TestBeta0Derivation(t *testing.T) {
	mac := func(master string) *scrypto.CMAC {
		m, err := scrypto.NewHopCMAC(scrypto.DeriveHopKey([]byte(master), 0))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	base := originBeta0(mac("as-secret-71-1-42"), 1000, 3)
	for name, other := range map[string]uint16{
		"origin":    originBeta0(mac("as-secret-71-2-42"), 1000, 3),
		"seed":      originBeta0(mac("as-secret-71-1-7"), 1000, 3),
		"timestamp": originBeta0(mac("as-secret-71-1-42"), 1001, 3),
		"interface": originBeta0(mac("as-secret-71-1-42"), 1000, 4),
	} {
		if other == base {
			t.Errorf("beta0 %#04x unchanged when the %s changes", base, name)
		}
	}
	if again := originBeta0(mac("as-secret-71-1-42"), 1000, 3); again != base {
		t.Errorf("beta0 %#04x, then %#04x from the same inputs", base, again)
	}

	topo := runnerTopo(t)
	run := func() *Registry {
		reg, err := (&Runner{Topo: topo, Keys: rkey, Timestamp: 500}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	a, b := run(), run()
	sameRegistry(t, "second run", b, a)
	for _, s := range append(a.Core.All(), a.Down.All()...) {
		first := s.ASEntries[0]
		m, err := scrypto.NewHopCMAC(rkey(first.IA))
		if err != nil {
			t.Fatal(err)
		}
		if want := originBeta0(m, 500, first.Egress); s.Beta0 != want {
			t.Errorf("segment %v: beta0 %#04x, want %#04x", s, s.Beta0, want)
		}
	}
}

// TestLengthAdmitsNeverOverrules: whenever the length-only check refuses
// a candidate, the full rule refuses it under any route, and Insert
// agrees — on stores filled at random to their limit and window.
func TestLengthAdmitsNeverOverrules(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	origin := rc1
	refused := 0
	for _, limit := range []int{1, 3, 8} {
		s := NewStore(limit)
		for i := 0; i < 400; i++ {
			n := 1 + rng.Intn(7)
			seg := &segment.Segment{ASEntries: make([]segment.ASEntry, n)}
			for j := range seg.ASEntries {
				seg.ASEntries[j] = segment.ASEntry{IA: origin, Ingress: uint16(rng.Intn(1 << 16)), Egress: uint16(rng.Intn(1 << 16))}
			}
			e := NewEntry(seg, 1)
			byLength, byRoute := s.lengthAdmits(s.byOrigin[origin], n), s.Admits(origin, n, e.Route)
			if !byLength {
				refused++
				if byRoute {
					t.Fatalf("limit %d: length %d refused on its own, admitted with route %s", limit, n, e.Route)
				}
			}
			if got := s.InsertEntry(e); got != byRoute {
				t.Fatalf("limit %d: Admits %v, Insert %v", limit, byRoute, got)
			}
		}
	}
	if refused == 0 {
		t.Error("the length check never refused anything")
	}
}
