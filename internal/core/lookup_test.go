package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/scenario"
	_ "sciera/internal/sciera" // registers the builtin "sciera" scenario
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
	for _, c := range n.Topo.CoreASes() {
		if !slices.Contains(ends, c) {
			ends = append(ends, c)
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
							var ups []*segment.Segment
							if db := reg.Up[src]; db != nil {
								ups = db.All()
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
	if !reflect.DeepEqual(ups, reg.Up[lA].All()) || !reflect.DeepEqual(cores, reg.Core.All()) || downs != nil {
		t.Fatalf("zero dst: %d ups, %d cores, %d downs; want %d, %d, 0",
			len(ups), len(cores), len(downs), reg.Up[lA].Len(), reg.Core.Len())
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

// TestLookupPlanesAgree: the daemon → control-service plane and
// Network.Paths answer every vantage pair with the same paths in the
// same order, before and after a core-link flap — they share one
// selection rule, so they cannot drift.
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
