package combinator_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"sciera/internal/addr"
	"sciera/internal/beacon"
	. "sciera/internal/combinator"
	"sciera/internal/topology"
)

// randomNet builds a random two-tier topology: a full mesh of cores
// (some links doubled), leaves multi-homed to random cores, and a few
// peering links between leaves. Every control-plane artifact is
// produced by the real beacon runner.
func randomNet(seed int64) (*topology.Topology, *beacon.Registry, []addr.IA, error) {
	rng := rand.New(rand.NewSource(seed))
	topo := topology.New()
	nCores := 2 + rng.Intn(3)  // 2..4
	nLeaves := 3 + rng.Intn(4) // 3..6

	var cores, leaves, all []addr.IA
	for i := 0; i < nCores; i++ {
		ia := addr.MustParseIA(fmt.Sprintf("71-%d", i+1))
		cores = append(cores, ia)
		if err := topo.AddAS(topology.ASInfo{IA: ia, Core: true}); err != nil {
			return nil, nil, nil, err
		}
	}
	for i := 0; i < nLeaves; i++ {
		ia := addr.MustParseIA(fmt.Sprintf("71-%d", 100+i))
		leaves = append(leaves, ia)
		if err := topo.AddAS(topology.ASInfo{IA: ia}); err != nil {
			return nil, nil, nil, err
		}
	}
	all = append(append(all, cores...), leaves...)

	lat := func() float64 { return 1 + float64(rng.Intn(50)) }
	// Core mesh, occasionally doubled (parallel circuits).
	for i := range cores {
		for j := i + 1; j < len(cores); j++ {
			if _, err := topo.AddLink(topology.LinkEnd{IA: cores[i]}, topology.LinkEnd{IA: cores[j]},
				topology.LinkCore, lat(), ""); err != nil {
				return nil, nil, nil, err
			}
			if rng.Intn(3) == 0 {
				if _, err := topo.AddLink(topology.LinkEnd{IA: cores[i]}, topology.LinkEnd{IA: cores[j]},
					topology.LinkCore, lat(), ""); err != nil {
					return nil, nil, nil, err
				}
			}
		}
	}
	// Leaves: 1-2 uplinks each.
	for _, leaf := range leaves {
		ups := 1 + rng.Intn(2)
		perm := rng.Perm(len(cores))
		for k := 0; k < ups && k < len(cores); k++ {
			if _, err := topo.AddLink(topology.LinkEnd{IA: cores[perm[k]]}, topology.LinkEnd{IA: leaf},
				topology.LinkParent, lat(), ""); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	// A couple of random peering links between distinct leaves.
	for k := 0; k < 2 && nLeaves >= 2; k++ {
		a, b := rng.Intn(nLeaves), rng.Intn(nLeaves)
		if a == b {
			continue
		}
		if _, err := topo.AddLink(topology.LinkEnd{IA: leaves[a]}, topology.LinkEnd{IA: leaves[b]},
			topology.LinkPeer, lat(), ""); err != nil {
			return nil, nil, nil, err
		}
	}

	r := &beacon.Runner{
		Topo:      topo,
		Keys:      keyOf,
		Timestamp: 1000,
	}
	reg, err := r.Run()
	if err != nil {
		return nil, nil, nil, err
	}
	return topo, reg, all, nil
}

// TestCombineProperties is the package's property-based invariant
// check: over random topologies, every combined path (including
// shortcuts and peer crossings) must
//
//  1. verify hop-by-hop with the per-AS keys under router semantics,
//  2. be loop-free at the AS level,
//  3. carry a unique fingerprint within its path set,
//  4. be sorted by (hops, latency), and
//  5. report latency equal to the sum of its crossed links.
func TestCombineProperties(t *testing.T) {
	prop := func(seed int64) bool {
		topo, reg, all, err := randomNet(seed % 1000)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, src := range all {
			for _, dst := range all {
				if src == dst {
					continue
				}
				paths := combineFromRegistry(reg, src, dst, topo)
				seen := make(map[string]bool)
				for i, p := range paths {
					verifyWalk(t, topo, p) // (1) — fails the test directly
					asSeen := make(map[addr.IA]bool)
					for _, ia := range p.ASes() {
						if asSeen[ia] {
							t.Logf("seed %d: loop at %v in %s", seed, ia, p.Fingerprint)
							return false // (2)
						}
						asSeen[ia] = true
					}
					if seen[p.Fingerprint] {
						t.Logf("seed %d: duplicate fingerprint %s", seed, p.Fingerprint)
						return false // (3)
					}
					seen[p.Fingerprint] = true
					if i > 0 {
						prev := paths[i-1]
						if p.NumHops() < prev.NumHops() ||
							(p.NumHops() == prev.NumHops() && p.LatencyMS < prev.LatencyMS) {
							t.Logf("seed %d: sort violation at %d", seed, i)
							return false // (4)
						}
					}
					if !latencyMatchesLinks(topo, p) {
						t.Logf("seed %d: latency mismatch on %s", seed, p.Fingerprint)
						return false // (5)
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// latencyMatchesLinks recomputes a path's latency from the topology's
// link table using the egress interface of every second crossing.
func latencyMatchesLinks(topo *topology.Topology, p *Path) bool {
	var sum float64
	for i := 0; i+1 < len(p.Interfaces); i += 2 {
		l, ok := topo.LinkAt(topology.LinkEnd{IA: p.Interfaces[i].IA, IfID: p.Interfaces[i].IfID})
		if !ok {
			return false
		}
		sum += l.LatencyMS
	}
	return sum == p.LatencyMS
}

// TestReversedProperties: over random topologies, reversal is an
// involution on fingerprints and every reversed path verifies.
func TestReversedProperties(t *testing.T) {
	prop := func(seed int64) bool {
		topo, reg, all, err := randomNet(seed % 1000)
		if err != nil {
			return false
		}
		checked := 0
		for _, src := range all {
			for _, dst := range all {
				if src == dst || checked > 40 {
					continue
				}
				for _, p := range combineFromRegistry(reg, src, dst, topo) {
					rev, err := p.Reversed()
					if err != nil {
						t.Logf("seed %d: reverse %s: %v", seed, p.Fingerprint, err)
						return false
					}
					verifyWalk(t, topo, rev)
					rev2, err := rev.Reversed()
					if err != nil || rev2.Fingerprint != p.Fingerprint {
						t.Logf("seed %d: reversal not involutive on %s", seed, p.Fingerprint)
						return false
					}
					checked++
				}
			}
		}
		return checked > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
