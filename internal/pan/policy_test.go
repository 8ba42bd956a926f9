package pan

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/spath"
)

// fakePath builds a path with the given fingerprint inputs and latency.
func fakePath(hops int, latency float64, ifStart uint16) *combinator.Path {
	p := &combinator.Path{
		Src:       addr.MustParseIA("71-1"),
		Dst:       addr.MustParseIA("71-2"),
		LatencyMS: latency,
		Raw:       spath.Path{},
	}
	for i := 0; i < hops; i++ {
		base := addr.AS(100 + int(ifStart)*10 + i)
		p.Interfaces = append(p.Interfaces,
			combinator.PathInterface{IA: addr.MustIA(71, base), IfID: ifStart + uint16(i)},
			combinator.PathInterface{IA: addr.MustIA(71, base+1), IfID: ifStart + uint16(i) + 100},
		)
	}
	p.Fingerprint = ""
	for _, itf := range p.Interfaces {
		p.Fingerprint += itf.String() + ">"
	}
	return p
}

func TestPolicyByName(t *testing.T) {
	for _, name := range append([]string{""}, AvailablePreferencePolicies...) {
		if _, err := PolicyByName(name); err != nil {
			t.Errorf("PolicyByName(%q): %v", name, err)
		}
	}
	if _, err := PolicyByName("bogus"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestShortestOrdering(t *testing.T) {
	a := fakePath(2, 50, 1)
	b := fakePath(3, 10, 10)
	got := Shortest{}.Order([]*combinator.Path{b, a})
	if got[0] != a {
		t.Error("shortest policy did not prefer fewer hops")
	}
	if (Shortest{}).Name() != "shortest" {
		t.Error("name")
	}
}

func TestFastestUsesMeasurements(t *testing.T) {
	slowMeta := fakePath(2, 100, 1) // metadata says slow
	fastMeta := fakePath(2, 10, 10) // metadata says fast
	// Without measurements, metadata decides.
	got := Fastest{}.Order([]*combinator.Path{slowMeta, fastMeta})
	if got[0] != fastMeta {
		t.Error("fastest (metadata) wrong")
	}
	// Measurements override: the "slow" path actually measures faster.
	rtts := NewRTTRecorder()
	rtts.Observe(slowMeta.Fingerprint, 20*time.Millisecond)
	rtts.Observe(fastMeta.Fingerprint, 200*time.Millisecond)
	got = Fastest{RTTs: rtts}.Order([]*combinator.Path{slowMeta, fastMeta})
	if got[0] != slowMeta {
		t.Error("fastest policy ignored measured RTTs")
	}
}

func TestRTTRecorderEWMA(t *testing.T) {
	r := NewRTTRecorder()
	if _, ok := r.Get("x"); ok {
		t.Error("empty recorder returned a value")
	}
	r.Observe("x", 100*time.Millisecond)
	if got, _ := r.Get("x"); got != 100*time.Millisecond {
		t.Errorf("first observation = %v", got)
	}
	r.Observe("x", 200*time.Millisecond)
	// EWMA alpha 1/4: 100*3/4 + 200/4 = 125ms.
	if got, _ := r.Get("x"); got != 125*time.Millisecond {
		t.Errorf("ewma = %v, want 125ms", got)
	}
}

func TestMostDisjointOrdering(t *testing.T) {
	ref := fakePath(3, 10, 1)
	overlap := fakePath(3, 10, 1) // same interfaces as ref
	distinct := fakePath(3, 50, 50)
	got := MostDisjoint{References: []*combinator.Path{ref}}.Order(
		[]*combinator.Path{overlap, distinct})
	if got[0] != distinct {
		t.Error("most-disjoint did not prefer the distinct path")
	}
	// Without references, the first candidate becomes the reference.
	got = MostDisjoint{}.Order([]*combinator.Path{overlap, distinct})
	if got[0] != distinct {
		t.Error("implicit reference ordering wrong")
	}
	if (MostDisjoint{}).Name() != "disjoint" {
		t.Error("name")
	}
}

func TestSequenceFiltering(t *testing.T) {
	p := fakePath(2, 10, 1)
	ases := p.ASes()
	// Build the exact predicate string.
	exact := ""
	for i, ia := range ases {
		if i > 0 {
			exact += " "
		}
		exact += ia.String()
	}
	if got := ParseSequence(exact).Order([]*combinator.Path{p}); len(got) != 1 {
		t.Error("exact sequence rejected")
	}
	// Wildcards.
	wild := ""
	for i := range ases {
		if i > 0 {
			wild += " "
		}
		wild += "0-0"
	}
	if got := ParseSequence(wild).Order([]*combinator.Path{p}); len(got) != 1 {
		t.Error("wildcard sequence rejected")
	}
	// Wrong length.
	if got := ParseSequence("0-0").Order([]*combinator.Path{p}); len(got) != 0 {
		t.Error("length-mismatched sequence accepted")
	}
	// Wrong AS.
	if got := ParseSequence("71-999 " + wild[4:]).Order([]*combinator.Path{p}); len(got) != 0 {
		t.Error("mismatched predicate accepted")
	}
}

func TestInteractiveEdgeCases(t *testing.T) {
	p1, p2 := fakePath(2, 1, 1), fakePath(2, 2, 10)
	paths := []*combinator.Path{p1, p2}
	// Nil chooser: pass-through.
	if got := (Interactive{}).Order(paths); got[0] != p1 {
		t.Error("nil chooser changed order")
	}
	// Out-of-range choice: pass-through.
	oor := Interactive{Choose: func([]*combinator.Path) int { return 99 }}
	if got := oor.Order(paths); got[0] != p1 {
		t.Error("out-of-range choice changed order")
	}
	// Valid choice moves to front, keeps the rest.
	pick := Interactive{Choose: func([]*combinator.Path) int { return 1 }}
	got := pick.Order(paths)
	if got[0] != p2 || got[1] != p1 || len(got) != 2 {
		t.Error("interactive selection wrong")
	}
	// Empty input.
	if got := pick.Order(nil); got != nil {
		t.Error("empty input mishandled")
	}
}

func TestModeStrings(t *testing.T) {
	if ModeDaemon.String() != "daemon" || ModeBootstrapper.String() != "bootstrapper" ||
		ModeStandalone.String() != "standalone" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode should format")
	}
}

// orderPerComparison is the MostDisjoint.Order this package shipped
// before scores were computed once per path: the comparator rescored
// both paths on every comparison. Kept as the oracle.
func orderPerComparison(m MostDisjoint, paths []*combinator.Path) []*combinator.Path {
	refs := m.References
	if len(refs) == 0 && len(paths) > 0 {
		refs = []*combinator.Path{paths[0]}
	}
	score := func(p *combinator.Path) float64 {
		min := 2.0
		for _, r := range refs {
			if d := combinator.Disjointness(p, r); d < min {
				min = d
			}
		}
		return min
	}
	out := append([]*combinator.Path(nil), paths...)
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := score(out[i]), score(out[j])
		if si != sj {
			return si > sj
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// TestMostDisjointMatchesPerComparisonOracle orders seeded random path
// sets both ways. Interfaces come from a small pool, so scores tie often;
// some sets repeat a path (equal score and fingerprint: stability
// decides), some have no references, some are empty.
func TestMostDisjointMatchesPerComparisonOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	randPath := func() *combinator.Path {
		p := &combinator.Path{}
		for n := rng.Intn(7); n > 0; n-- {
			itf := combinator.PathInterface{IA: addr.MustIA(71, addr.AS(1+rng.Intn(4))), IfID: uint16(1 + rng.Intn(3))}
			p.Interfaces = append(p.Interfaces, itf)
			p.Fingerprint += itf.String() + ">"
		}
		return p
	}
	for round := 0; round < 500; round++ {
		paths := make([]*combinator.Path, rng.Intn(30))
		for i := range paths {
			if i > 0 && rng.Intn(5) == 0 {
				dup := *paths[rng.Intn(i)] // same interfaces, distinct object
				paths[i] = &dup
				continue
			}
			paths[i] = randPath()
		}
		var m MostDisjoint
		for n := rng.Intn(3); n > 0 && len(paths) > 0; n-- {
			m.References = append(m.References, paths[rng.Intn(len(paths))])
		}
		got, want := m.Order(paths), orderPerComparison(m, paths)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d paths ordered, oracle %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d (%d paths, %d refs): position %d differs from the oracle", round, len(paths), len(m.References), i)
			}
		}
	}
}
