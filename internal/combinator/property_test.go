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
	return genNet(seed, false)
}

// tieredNet builds a random three-tier topology: randomNet's cores, a
// middle tier multi-homed to them, leaves multi-homed to middle ASes
// and cores, an MTU per AS, and peering links between leaves, between
// middle ASes and leaves, and between middle ASes. Leaves that share a
// middle AS reach each other over a shortcut, and peering crossings sit
// below the cores but above src and dst.
func tieredNet(seed int64) (*topology.Topology, *beacon.Registry, []addr.IA, error) {
	return genNet(seed, true)
}

func genNet(seed int64, tiered bool) (*topology.Topology, *beacon.Registry, []addr.IA, error) {
	rng := rand.New(rand.NewSource(seed))
	topo := topology.New()
	nCores := 2 + rng.Intn(3)  // 2..4
	nLeaves := 3 + rng.Intn(4) // 3..6
	nMids := 0
	if tiered {
		nMids = 2 + rng.Intn(3) // 2..4
	}

	var cores, mids, leaves, all []addr.IA
	addAS := func(list *[]addr.IA, n, base int, core bool) error {
		for i := 0; i < n; i++ {
			ia := addr.MustParseIA(fmt.Sprintf("71-%d", base+i))
			*list = append(*list, ia)
			info := topology.ASInfo{IA: ia, Core: core}
			if tiered {
				info.MTU = uint16(1280 + 8*rng.Intn(25))
			}
			if err := topo.AddAS(info); err != nil {
				return err
			}
		}
		return nil
	}
	if err := addAS(&cores, nCores, 1, true); err != nil {
		return nil, nil, nil, err
	}
	if err := addAS(&leaves, nLeaves, 100, false); err != nil {
		return nil, nil, nil, err
	}
	if err := addAS(&mids, nMids, 50, false); err != nil {
		return nil, nil, nil, err
	}
	all = append(append(append(all, cores...), mids...), leaves...)

	lat := func() float64 { return 1 + float64(rng.Intn(50)) }
	link := func(a, b addr.IA, typ topology.LinkType) error {
		_, err := topo.AddLink(topology.LinkEnd{IA: a}, topology.LinkEnd{IA: b}, typ, lat(), "")
		return err
	}
	// Core mesh, occasionally doubled (parallel circuits).
	for i := range cores {
		for j := i + 1; j < len(cores); j++ {
			if err := link(cores[i], cores[j], topology.LinkCore); err != nil {
				return nil, nil, nil, err
			}
			if rng.Intn(3) == 0 {
				if err := link(cores[i], cores[j], topology.LinkCore); err != nil {
					return nil, nil, nil, err
				}
			}
		}
	}
	// 1-2 uplinks each: middle ASes to cores, leaves to middle ASes and
	// cores (cores only, two-tier).
	homes := func(children, parents []addr.IA) error {
		for _, child := range children {
			ups := 1 + rng.Intn(2)
			perm := rng.Perm(len(parents))
			for k := 0; k < ups && k < len(parents); k++ {
				if err := link(parents[perm[k]], child, topology.LinkParent); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := homes(mids, cores); err != nil {
		return nil, nil, nil, err
	}
	if err := homes(leaves, append(mids[:len(mids):len(mids)], cores...)); err != nil {
		return nil, nil, nil, err
	}
	// A couple of random peering links between distinct non-core ASes.
	peer := func(as, bs []addr.IA) error {
		for k := 0; k < 2 && len(as) > 0 && len(bs) > 0; k++ {
			a, b := as[rng.Intn(len(as))], bs[rng.Intn(len(bs))]
			if a == b {
				continue
			}
			if err := link(a, b, topology.LinkPeer); err != nil {
				return err
			}
		}
		return nil
	}
	if err := peer(leaves, leaves); err != nil {
		return nil, nil, nil, err
	}
	if tiered {
		if err := peer(mids, leaves); err != nil {
			return nil, nil, nil, err
		}
		if err := peer(mids, mids); err != nil {
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
// check: over random two- and three-tier topologies, every combined
// path (including shortcuts and peer crossings) must
//
//  1. verify hop-by-hop with the per-AS keys under router semantics,
//  2. be loop-free at the AS level,
//  3. carry a unique fingerprint within its path set,
//  4. be sorted by (hops, latency),
//  5. report latency equal to the sum of its crossed links, and
//  6. report the least MTU of the ASes it traverses.
func TestCombineProperties(t *testing.T) {
	prop := func(seed int64) bool {
		for _, gen := range []func(int64) (*topology.Topology, *beacon.Registry, []addr.IA, error){randomNet, tieredNet} {
			topo, reg, all, err := gen(seed % 1000)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if !pathsHold(t, seed, topo, reg, all) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// pathsHold checks TestCombineProperties' invariants on the paths
// between every pair of all.
func pathsHold(t *testing.T, seed int64, topo *topology.Topology, reg *beacon.Registry, all []addr.IA) bool {
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
				mtu := ^uint16(0)
				for _, ia := range p.ASes() {
					if asSeen[ia] {
						t.Logf("seed %d: loop at %v in %s", seed, ia, p.Fingerprint)
						return false // (2)
					}
					asSeen[ia] = true
					info, _ := topo.AS(ia)
					mtu = min(mtu, info.MTU)
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
				if p.MTU != mtu {
					t.Logf("seed %d: MTU %d on %s, want %d", seed, p.MTU, p.Fingerprint, mtu)
					return false // (6)
				}
			}
		}
	}
	return true
}

// TestTieredNetReachesCrossings pins what tieredNet is for: over a few
// seeds it yields shortcuts (two segments joined at a non-core AS) and
// peering crossings between ASes that are neither src nor dst.
func TestTieredNetReachesCrossings(t *testing.T) {
	shortcuts, midPeerings := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		topo, reg, all, err := tieredNet(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range all {
			for _, dst := range all {
				if src == dst {
					continue
				}
				for _, p := range combineFromRegistry(reg, src, dst, topo) {
					if len(p.Raw.Infos) != 2 {
						continue
					}
					// The AS where the two segments meet, or the far
					// side of the peering link.
					joint := p.ASes()[p.Raw.SegLens[0]-1]
					info, _ := topo.AS(joint)
					switch {
					case p.Raw.Infos[0].Peer && joint != src && p.ASes()[p.Raw.SegLens[0]] != dst:
						midPeerings++
					case !p.Raw.Infos[0].Peer && !info.Core:
						shortcuts++
					}
				}
			}
		}
	}
	if shortcuts == 0 || midPeerings == 0 {
		t.Errorf("tieredNet seeds 0-9: %d shortcuts, %d peering crossings away from src and dst; want some of each", shortcuts, midPeerings)
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

// TestReversedProperties: over random three-tier topologies, reversal is an
// involution on fingerprints and every reversed path verifies.
func TestReversedProperties(t *testing.T) {
	prop := func(seed int64) bool {
		topo, reg, all, err := tieredNet(seed % 1000)
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
