package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/beacon"
	"sciera/internal/combinator"
	"sciera/internal/control"
	"sciera/internal/scenario"
	"sciera/internal/segment"
	"sciera/internal/simnet"
	"sciera/internal/telemetry"
	"sciera/internal/topology"
)

// buildScenarioNet converges a network on a scenario's base topology.
func buildScenarioNet(t testing.TB, spec string, seed int64) (*Network, *simnet.Sim, *scenario.Scenario) {
	t.Helper()
	sc, err := scenario.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := simnet.NewSim(sc.Campaign.Start())
	n, err := Build(topo, sim, Options{Seed: seed, BestPerOrigin: sc.Campaign.BestPerOrigin})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, sim, sc
}

// lookupEnds is the set the differential tests pair up: the scenario's
// vantage ASes plus every core AS, so leaf→leaf, leaf→core, core→leaf
// and core→core lookups are all covered.
func lookupEnds(n *Network, sc *scenario.Scenario) []addr.IA {
	ends := append([]addr.IA(nil), sc.Vantage...)
	for _, as := range n.Topo.ASes() {
		if as.Core && !slices.Contains(ends, as.IA) {
			ends = append(ends, as.IA)
		}
	}
	return ends
}

// firstCoreLink picks the circuit the tests flap: the lowest-numbered
// core link.
func firstCoreLink(t testing.TB, topo *topology.Topology) int {
	t.Helper()
	for _, l := range topo.Links() {
		if l.Type == topology.LinkCore {
			return l.ID
		}
	}
	t.Fatal("topology has no core link")
	return 0
}

// isSubsequence reports whether sub appears in full in order (by
// segment identity).
func isSubsequence(sub, full []*segment.Segment) bool {
	i := 0
	for _, s := range full {
		if i < len(sub) && sub[i] == s {
			i++
		}
	}
	return i == len(sub)
}

// TestLookupMatchesWholeStore is the selection rule's oracle: combining
// the segments Registry.Lookup selects must deep-equal (paths, raw
// data-plane bytes, expiry, order) combining src's ups with the WHOLE
// core store, for every ordered pair, on the SCIERA topology and a
// generated multi-ISD one, at two seeds, before and after a core-link
// flap. It also pins that the selection is a subsequence of Core.All()
// and, over all pairs, a strict reduction.
func TestLookupMatchesWholeStore(t *testing.T) {
	for _, spec := range []string{"sciera", "gen:isds=3,ases=40,cores=4,seed=5"} {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", spec, seed), func(t *testing.T) {
				n, _, sc := buildScenarioNet(t, spec, seed)
				ends := lookupEnds(n, sc)
				check := func(when string) {
					reg := n.Registry()
					all := reg.Core.All()
					selected, pairs, nonEmpty := 0, 0, 0
					for _, src := range ends {
						for _, dst := range ends {
							if src == dst {
								continue
							}
							// src's up segments, picked out of the whole
							// store by hand.
							var ups []*segment.Segment
							for _, s := range reg.Down.All() {
								if s.LastIA() == src {
									ups = append(ups, s)
								}
							}
							want := combinator.Combine(src, dst, ups, all, reg.Down.Get(0, dst))
							lu, lc, ld := reg.Lookup(src, dst)
							got := combinator.Combine(src, dst, lu, lc, ld)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s %v->%v: Lookup-selected combination differs from whole-store combination (%d vs %d paths)",
									when, src, dst, len(got), len(want))
							}
							if !isSubsequence(lc, all) {
								t.Fatalf("%s %v->%v: selected cores are not a subsequence of Core.All()", when, src, dst)
							}
							if fp := pathFingerprints(n, src, dst); len(fp) != len(want) {
								t.Fatalf("%s %v->%v: Network.Paths returned %d paths, want %d", when, src, dst, len(fp), len(want))
							}
							selected += len(lc)
							pairs++
							if len(want) > 0 {
								nonEmpty++
							}
						}
					}
					if nonEmpty == 0 {
						t.Fatalf("%s: no pair has a path", when)
					}
					if selected >= pairs*len(all) {
						t.Fatalf("%s: selection read %d core segments over %d pairs, no fewer than the whole store (%d) each",
							when, selected, pairs, len(all))
					}
				}
				check("converged")
				link := firstCoreLink(t, n.Topo)
				if err := n.SetLinkUp(link, false); err != nil {
					t.Fatal(err)
				}
				check("link down")
				if err := n.SetLinkUp(link, true); err != nil {
					t.Fatal(err)
				}
				check("link up")
			})
		}
	}
}

// TestLookupZeroDst: a lookup that names no destination keeps the
// control service's historical answer — the requester's up segments,
// every core segment, no down segments.
func TestLookupZeroDst(t *testing.T) {
	n := buildNet(t, simnet.NewSim(time.Unix(0, 0)))
	defer n.Close()
	reg := n.Registry()
	ups, cores, downs := reg.Lookup(lA, 0)
	if len(ups) == 0 || !reflect.DeepEqual(ups, reg.Ups(lA)) || !reflect.DeepEqual(cores, reg.Core.All()) || downs != nil {
		t.Fatalf("zero dst: %d ups, %d cores, %d downs; want %d, %d, 0",
			len(ups), len(cores), len(downs), len(reg.Ups(lA)), reg.Core.Len())
	}
}

// daemonFingerprints resolves src→dst through the daemon → control
// service plane (JSON over the simulated underlay).
func daemonFingerprints(t *testing.T, n *Network, sim *simnet.Sim, src, dst addr.IA) []string {
	t.Helper()
	d, err := n.NewDaemon(src)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var out []string
	done := false
	d.PathsAsync(dst, func(paths []*combinator.Path, err error) {
		if err != nil {
			t.Errorf("%v->%v: %v", src, dst, err)
		}
		for _, p := range paths {
			out = append(out, p.Fingerprint)
		}
		done = true
	})
	sim.RunFor(10 * time.Second)
	if !done {
		t.Fatalf("%v->%v: daemon lookup did not complete", src, dst)
	}
	return out
}

// servedGen asks src's control service for dst's paths the way a daemon
// does and returns the generation token the answer carries.
func servedGen(t *testing.T, n *Network, sim *simnet.Sim, src, dst addr.IA) uint64 {
	t.Helper()
	svc, _ := n.ControlService(src)
	cli, err := control.NewClient(sim, svc.Addr(), n.HostAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var gen uint64
	cli.Do(&control.Request{Type: "paths", Dst: dst}, func(resp *control.Response, err error) {
		if err != nil || resp.Error != "" {
			t.Errorf("%v->%v: paths request: %v %v", src, dst, err, resp)
			return
		}
		gen = resp.Gen
	})
	sim.RunFor(10 * time.Second)
	return gen
}

// TestLookupPlanesAgree: the daemon → control-service plane and
// Network.Paths answer every vantage pair with the same paths in the
// same order, before and after a core-link flap — they share one
// selection rule, so they cannot drift — and the Gen a daemon is handed
// is the registry's own validity token for its AS, folded.
func TestLookupPlanesAgree(t *testing.T) {
	for _, spec := range []string{"sciera", "gen:isds=3,ases=40,cores=4,seed=5"} {
		t.Run(spec, func(t *testing.T) {
			n, sim, sc := buildScenarioNet(t, spec, 1)
			check := func(when string) {
				for _, src := range sc.Vantage {
					for _, dst := range sc.Vantage {
						if src == dst {
							continue
						}
						got, want := daemonFingerprints(t, n, sim, src, dst), pathFingerprints(n, src, dst)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %v->%v: daemon plane %d paths, Network.Paths %d, or order differs",
								when, src, dst, len(got), len(want))
						}
						if got, want := servedGen(t, n, sim, src, dst), n.Registry().Token(src).Gen(); got != want {
							t.Fatalf("%s %v->%v: control service serves Gen %#x, registry token folds to %#x", when, src, dst, got, want)
						}
					}
				}
			}
			check("converged")
			if err := n.SetLinkUp(firstCoreLink(t, n.Topo), false); err != nil {
				t.Fatal(err)
			}
			check("link down")
		})
	}
}

// TestControlTelemetryServesFewCores: on a 200-AS topology one daemon
// lookup is answered with a small fraction of the core store, and the
// control-service cells registered beside the daemon's account for it.
func TestControlTelemetryServesFewCores(t *testing.T) {
	n, sim, sc := buildScenarioNet(t, "gen:isds=3,ases=200,cores=8,seed=1", 1)
	src, dst := sc.Vantage[1], sc.Vantage[len(sc.Vantage)-1] // leaves in different ISDs
	if len(daemonFingerprints(t, n, sim, src, dst)) == 0 {
		t.Fatalf("%v->%v: no paths", src, dst)
	}
	snap := n.TelemetrySnapshot()
	value := func(name string, labels ...telemetry.Label) uint64 {
		v, ok := snap.Value(name, labels...)
		if !ok {
			t.Fatalf("%s%v not registered", name, labels)
		}
		return uint64(v)
	}
	stored := uint64(n.Registry().Core.Len())
	_, selected, _ := n.Registry().Lookup(src, dst)
	served := value("sciera_control_segments_served_total", telemetry.L("kind", "core"))
	if served != uint64(len(selected)) || served == 0 || served*10 > stored {
		t.Fatalf("served %d core segments (selection %d) of %d stored; want a non-empty selection under a tenth of the store",
			served, len(selected), stored)
	}
	if got := value("sciera_control_requests_total", telemetry.L("type", "paths")); got != 1 {
		t.Errorf("paths requests = %d, want 1", got)
	}
	if value("sciera_control_segments_served_total", telemetry.L("kind", "up")) == 0 ||
		value("sciera_control_segments_served_total", telemetry.L("kind", "down")) == 0 {
		t.Error("up/down segments served not counted")
	}
	if value("sciera_control_response_bytes_total") == 0 {
		t.Error("response bytes not counted")
	}
	if got := value("sciera_control_not_modified_total"); got != 0 {
		t.Errorf("not_modified = %d, want 0", got)
	}
}

// memoHarness drives the memo differential: a converged network, a
// donor registry beaconed over the same topology an hour later (so its
// segments carry fresh IDs and outlive the network's own), and the live
// registries under test — index 0 is the network's current one, the
// rest are clones.
type memoHarness struct {
	n     *Network
	donor *beacon.Registry
	pairs [][2]addr.IA
	flap  int
	live  []*beacon.Registry
}

func newMemoHarness(t *testing.T, n *Network, build func() *topology.Topology, ends []addr.IA) *memoHarness {
	t.Helper()
	opts := n.Opts
	opts.Now = opts.Now.Add(time.Hour)
	later, err := Build(build(), simnet.NewSim(opts.Now), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { later.Close() })
	h := &memoHarness{n: n, donor: later.Registry(), flap: firstCoreLink(t, n.Topo), live: []*beacon.Registry{n.Registry()}}
	for _, src := range ends {
		for _, dst := range ends {
			if src != dst {
				h.pairs = append(h.pairs, [2]addr.IA{src, dst})
			}
		}
	}
	return h
}

// check is the oracle: whatever the memo answers must deep-equal a
// fresh Combine over a fresh Lookup on the same registry.
func (h *memoHarness) check(t *testing.T, when string, reg *beacon.Registry, pairs ...[2]addr.IA) {
	t.Helper()
	for _, p := range pairs {
		got := reg.Paths(p[0], p[1])
		ups, cores, downs := reg.Lookup(p[0], p[1])
		if want := combinator.Combine(p[0], p[1], ups, cores, downs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: memoized %v->%v has %d paths, fresh combination %d, or they differ", when, p[0], p[1], len(got), len(want))
		}
	}
}

// mutate changes reg's stores in place: a donor segment inserted into
// the core or the down store, or an expiry sweep at an instant that
// removes nothing, the network's own segments, or everything.
func (h *memoHarness) mutate(rng *rand.Rand, reg *beacon.Registry) {
	pick := func(segs []*segment.Segment) *segment.Segment { return segs[rng.Intn(len(segs))] }
	switch rng.Intn(3) {
	case 0:
		reg.Core.Insert(pick(h.donor.Core.All()))
	case 1:
		reg.Down.Insert(pick(h.donor.Down.All()))
	case 2:
		at := pick(h.donor.Core.All()).Expiry().Add(time.Duration(rng.Intn(3)*60-90) * time.Minute)
		reg.Core.DeleteExpired(at)
		reg.Down.DeleteExpired(at)
	}
}

// flip toggles the flapped core link, which publishes a new registry.
func (h *memoHarness) flip() error {
	return h.n.SetLinkUp(h.flap, !h.n.Topo.LinkUp(h.flap))
}

// TestPathsMemoMatchesFreshCombine is the memo's differential: under
// seeded random interleavings of lookups, in-place inserts and expiry
// sweeps, clones mutated on either side, and registry swaps by link
// flap, every memoized answer — on originals and clones alike — equals
// a fresh combination. A second phase runs lookups and clones against
// mutations and swaps from two goroutines (for -race) and holds every
// registry to the same oracle once they join.
func TestPathsMemoMatchesFreshCombine(t *testing.T) {
	small := func(t *testing.T) *memoHarness {
		n := buildNet(t, simnet.NewSim(time.Unix(0, 0)))
		t.Cleanup(func() { n.Close() })
		return newMemoHarness(t, n, func() *topology.Topology { return buildTopo(t) }, []addr.IA{c1, c2, c3, lA, lC})
	}
	generated := func(t *testing.T) *memoHarness {
		n, _, sc := buildScenarioNet(t, "gen:isds=3,ases=60", 1)
		return newMemoHarness(t, n, func() *topology.Topology {
			topo, err := sc.Build()
			if err != nil {
				t.Fatal(err)
			}
			return topo
		}, lookupEnds(n, sc))
	}
	for name, build := range map[string]func(*testing.T) *memoHarness{"small": small, "gen60": generated} {
		t.Run(name, func(t *testing.T) {
			h := build(t)
			rng := rand.New(rand.NewSource(17))
			pair := func() [2]addr.IA { return h.pairs[rng.Intn(len(h.pairs))] }
			oneOf := func() *beacon.Registry { return h.live[rng.Intn(len(h.live))] }
			for step := 0; step < 400; step++ {
				when := fmt.Sprintf("step %d", step)
				switch op := rng.Intn(12); {
				case op < 6:
					h.check(t, when, oneOf(), pair())
				case op < 8:
					reg := oneOf()
					h.mutate(rng, reg)
					h.check(t, when+" after mutation", reg, pair(), pair())
				case op < 10:
					// Clone, then mutate one side: the other side's carried
					// or kept entries must still hold, the mutated side's
					// must not be served stale.
					src := oneOf()
					p := pair()
					h.check(t, when+" before clone", src, p)
					clone := src.Clone()
					if len(h.live) < 4 {
						h.live = append(h.live, clone)
					} else {
						h.live[1+rng.Intn(3)] = clone
					}
					h.mutate(rng, []*beacon.Registry{src, clone}[rng.Intn(2)])
					h.check(t, when+" source after clone", src, p, pair())
					h.check(t, when+" clone", clone, p, pair())
				case op == 10:
					if err := h.flip(); err != nil {
						t.Fatal(err)
					}
					h.live[0] = h.n.Registry()
					h.check(t, when+" after swap", h.live[0], pair(), pair())
				default:
					for _, reg := range h.live {
						h.check(t, when+" sweep", reg, h.pairs...)
					}
				}
			}

			h.live = append(h.live, h.live[0].Clone()) // the rounds mutate clones only
			for round := 0; round < 4; round++ {
				var clones []*beacon.Registry
				var wg sync.WaitGroup
				wg.Add(2)
				readers, writers := rand.New(rand.NewSource(int64(round))), rand.New(rand.NewSource(int64(100+round)))
				go func() {
					defer wg.Done()
					for i := 0; i < 60; i++ {
						p := h.pairs[readers.Intn(len(h.pairs))]
						switch reg := h.live[1+readers.Intn(len(h.live)-1)]; readers.Intn(4) {
						case 0:
							clones = append(clones, reg.Clone())
						case 1:
							h.n.Paths(p[0], p[1])
						default:
							reg.Paths(p[0], p[1])
						}
					}
				}()
				go func() {
					defer wg.Done()
					for i := 0; i < 60; i++ {
						reg := h.live[1+writers.Intn(len(h.live)-1)]
						h.mutate(writers, reg)
						p := h.pairs[writers.Intn(len(h.pairs))]
						reg.Paths(p[0], p[1])
					}
					if err := h.flip(); err != nil {
						t.Error(err)
					}
				}()
				wg.Wait()
				h.live[0] = h.n.Registry()
				for i, reg := range append(h.live, clones...) {
					h.check(t, fmt.Sprintf("round %d registry %d", round, i), reg, h.pairs...)
				}
			}
		})
	}
}
