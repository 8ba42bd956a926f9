package pathdb

import (
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/scrypto"
	"sciera/internal/segment"
)

// cloneSeg builds a minimal one-entry segment between two test ASes.
func cloneSeg(t *testing.T, ts uint32, beta uint16) *segment.Segment {
	t.Helper()
	ia1 := mustIA(t, "71-1")
	ia2 := mustIA(t, "71-2")
	key, _ := scrypto.NewHopCMAC(scrypto.DeriveHopKey([]byte("clone-test"), 0))
	seg, err := segment.Originate(ts, beta, ia1, 1, ia2, 1.0, 63, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.Extend(segment.ASEntry{IA: ia2, Ingress: 1, ExpTime: 63}, key); err != nil {
		t.Fatal(err)
	}
	return seg
}

func mustIA(t *testing.T, s string) addr.IA {
	t.Helper()
	ia, err := addr.ParseIA(s)
	if err != nil {
		t.Fatal(err)
	}
	return ia
}

func sameSegs(a, b []*segment.Segment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCloneSharedReads: a clone answers every query identically to the
// original — same segment pointers, same order — and carries a fresh
// identity so stamps never alias.
func TestCloneSharedReads(t *testing.T) {
	db := New()
	for i := 0; i < 8; i++ {
		db.Insert(cloneSeg(t, 1000, uint16(i)))
	}
	c := db.CloneShared()
	if c.Len() != db.Len() {
		t.Fatalf("clone has %d segments, original %d", c.Len(), db.Len())
	}
	if !sameSegs(c.All(), db.All()) {
		t.Fatal("clone All() differs from original")
	}
	first := mustIA(t, "71-1")
	if !sameSegs(c.Get(first, 0), db.Get(first, 0)) {
		t.Fatal("clone Get() differs from original")
	}
	// Same-object sharing: the clone must serve the original's segment
	// pointers, not copies.
	orig, cl := db.All(), c.All()
	for i := range orig {
		if orig[i] != cl[i] {
			t.Fatal("clone copied segment objects")
		}
	}
	if db.Stamp() == c.Stamp() {
		t.Fatal("clone stamp aliases the original's")
	}
}

// TestCloneSharedDivergence: mutating either side after cloning leaves
// the other untouched, in both directions and for both mutation kinds
// (insert and expiry deletion).
func TestCloneSharedDivergence(t *testing.T) {
	db := New()
	for i := 0; i < 4; i++ {
		db.Insert(cloneSeg(t, 1000, uint16(i)))
	}
	c := db.CloneShared()

	// Clone inserts: original unaffected.
	if !c.Insert(cloneSeg(t, 2000, 100)) {
		t.Fatal("clone insert failed")
	}
	if db.Len() != 4 || c.Len() != 5 {
		t.Fatalf("after clone insert: original %d, clone %d", db.Len(), c.Len())
	}

	// Original inserts: clone unaffected.
	if !db.Insert(cloneSeg(t, 2000, 101)) {
		t.Fatal("original insert failed")
	}
	if db.Len() != 5 || c.Len() != 5 {
		t.Fatalf("after original insert: original %d, clone %d", db.Len(), c.Len())
	}

	// Expiry on a second clone of the original: the original keeps all
	// segments. (ExpTime 63 ≈ 6h from the segment timestamp.)
	c2 := db.CloneShared()
	if n := c2.DeleteExpired(time.Unix(1000, 0).Add(100 * time.Hour)); n != 5 {
		t.Fatalf("DeleteExpired removed %d, want 5", n)
	}
	if c2.Len() != 0 {
		t.Fatalf("second clone kept %d segments past expiry", c2.Len())
	}
	if db.Len() != 5 {
		t.Fatalf("original lost segments to the clone's expiry: %d", db.Len())
	}

	// Gen moved on mutation, so stamps diverge from the pre-mutation
	// clone state.
	if got := c.Get(0, 0); len(got) != 5 {
		t.Fatalf("clone query after divergence: %d segments", len(got))
	}
}

// TestCloneSharedOfClone: chained clones stay independent.
func TestCloneSharedOfClone(t *testing.T) {
	db := New()
	db.Insert(cloneSeg(t, 1000, 1))
	c1 := db.CloneShared()
	c2 := c1.CloneShared()
	c2.Insert(cloneSeg(t, 1000, 2))
	if db.Len() != 1 || c1.Len() != 1 || c2.Len() != 2 {
		t.Fatalf("chained clone lengths: %d %d %d, want 1 1 2", db.Len(), c1.Len(), c2.Len())
	}
}
