package segment

import (
	"testing"
	"testing/quick"

	"sciera/internal/scrypto"
)

// TestTruncateFromRebasesBeta: every truncation of a valid segment must
// itself verify — the re-based Beta0 keeps the remaining MAC chain
// intact.
func TestTruncateFromRebasesBeta(t *testing.T) {
	s := buildSeg(t)
	for i := 0; i < s.Len(); i++ {
		tr, err := s.TruncateFrom(i)
		if err != nil {
			t.Fatalf("TruncateFrom(%d): %v", i, err)
		}
		if tr.Len() != s.Len()-i {
			t.Errorf("TruncateFrom(%d).Len() = %d", i, tr.Len())
		}
		if tr.FirstIA() != s.ASEntries[i].IA {
			t.Errorf("TruncateFrom(%d) starts at %v", i, tr.FirstIA())
		}
		if tr.LastIA() != s.LastIA() {
			t.Errorf("TruncateFrom(%d) ends at %v", i, tr.LastIA())
		}
		if err := tr.VerifyMACs(keyFor); err != nil {
			t.Errorf("TruncateFrom(%d) fails verification: %v", i, err)
		}
	}
	// TruncateFrom(0) is the identity on the accumulator.
	tr, _ := s.TruncateFrom(0)
	if tr.Beta0 != s.Beta0 {
		t.Errorf("TruncateFrom(0).Beta0 = %#x, want %#x", tr.Beta0, s.Beta0)
	}
	// Out-of-range indices error.
	if _, err := s.TruncateFrom(-1); err == nil {
		t.Error("TruncateFrom(-1) succeeded")
	}
	if _, err := s.TruncateFrom(s.Len()); err == nil {
		t.Error("TruncateFrom(len) succeeded")
	}
}

// TestTruncateIndependence: mutating the truncation must not touch the
// original (entries are copied).
func TestTruncateIndependence(t *testing.T) {
	s := buildSeg(t)
	tr, err := s.TruncateFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	tr.ASEntries[0].Ingress = 99
	if s.ASEntries[1].Ingress == 99 {
		t.Error("truncation shares entry storage with the original")
	}
}

// TestBetaAfterFirst pins the accumulator identity the peer-path
// construction relies on: BetaAfterFirst == Beta0 XOR MAC0[:2].
func TestBetaAfterFirst(t *testing.T) {
	s := buildSeg(t)
	want := scrypto.UpdateBeta(s.Beta0, s.ASEntries[0].MAC)
	if got := s.BetaAfterFirst(); got != want {
		t.Errorf("BetaAfterFirst = %#x, want %#x", got, want)
	}
	// For a single-entry truncation, BetaAfterFirst equals BetaFinal.
	tr, _ := s.TruncateFrom(s.Len() - 1)
	if tr.BetaAfterFirst() != tr.BetaFinal() {
		t.Error("single-entry segment: BetaAfterFirst != BetaFinal")
	}
	// Empty segment: identity.
	empty := &Segment{Beta0: 0x1234}
	if empty.BetaAfterFirst() != 0x1234 {
		t.Error("empty segment BetaAfterFirst changed Beta0")
	}
}

// TestTruncateChainsCompose: truncating twice equals truncating once at
// the combined index, including the re-based accumulator.
func TestTruncateChainsCompose(t *testing.T) {
	s := buildSeg(t)
	once, err := s.TruncateFrom(2)
	if err != nil {
		t.Fatal(err)
	}
	step, err := s.TruncateFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := step.TruncateFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	if once.Beta0 != twice.Beta0 || once.Len() != twice.Len() || once.FirstIA() != twice.FirstIA() {
		t.Errorf("composition broken: once=%+v twice=%+v", once, twice)
	}
}

// TestRouteIDStableAcrossRebeacon: RouteID depends only on the
// AS/interface route; re-originating the same route with a different
// timestamp and accumulator must keep it, while ID changes.
func TestRouteIDStableAcrossRebeacon(t *testing.T) {
	build := func(ts uint32, beta uint16) *Segment {
		s, err := Originate(ts, beta, coreIA, 1, midIA, 20, 63, macOf(coreIA))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Extend(ASEntry{IA: midIA, Ingress: 2, ExpTime: 63}, macOf(midIA)); err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := build(1000, 0x42)
	b := build(2000, 0x9abc)
	if a.RouteID() != b.RouteID() {
		t.Error("RouteID changed across re-beaconing of the same route")
	}
	if a.ID() == b.ID() {
		t.Error("ID identical despite different timestamp/accumulator")
	}
	// A different interface means a different route.
	c, err := Originate(1000, 0x42, coreIA, 7, midIA, 20, 63, macOf(coreIA))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Extend(ASEntry{IA: midIA, Ingress: 2, ExpTime: 63}, macOf(midIA)); err != nil {
		t.Fatal(err)
	}
	if a.RouteID() == c.RouteID() {
		t.Error("RouteID identical for different egress interface")
	}
}

// TestTruncatePropertyRandomBetas: over random initial accumulators the
// truncation invariant holds at every index (testing/quick).
func TestTruncatePropertyRandomBetas(t *testing.T) {
	prop := func(beta uint16, ts uint32) bool {
		s, err := Originate(ts, beta, coreIA, 1, midIA, 20, 63, macOf(coreIA))
		if err != nil {
			return false
		}
		if err := s.Extend(ASEntry{IA: midIA, Next: leafIA, Ingress: 2, Egress: 3, ExpTime: 63}, macOf(midIA)); err != nil {
			return false
		}
		if err := s.Extend(ASEntry{IA: leafIA, Ingress: 4, ExpTime: 63}, macOf(leafIA)); err != nil {
			return false
		}
		for i := 0; i < s.Len(); i++ {
			tr, err := s.TruncateFrom(i)
			if err != nil || tr.VerifyMACs(keyFor) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEmptySegmentAccessors covers the zero-value short-circuits.
func TestEmptySegmentAccessors(t *testing.T) {
	var s Segment
	if s.FirstIA() != 0 || s.LastIA() != 0 {
		t.Error("empty segment endpoints nonzero")
	}
	if _, err := s.TruncateFrom(0); err == nil {
		t.Error("truncating an empty segment succeeded")
	}
}
