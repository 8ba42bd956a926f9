package pathdb

import (
	"math/rand"
	"slices"
	"testing"

	"sciera/internal/addr"
	"sciera/internal/scrypto"
	"sciera/internal/segment"
)

// TestSyncMatchesRebuild: a store synced to a wanted segment set answers
// every query shape exactly as a New() store bulk-loaded with that set —
// same segments, same Get order — whatever the overlap between what it
// held and what is wanted (all, some, none, nothing wanted, nothing
// held, an unindexable segment on either side). The store it was synced
// from, and a CloneShared sibling of that store, still answer as before;
// and the result is the store itself, stamp and all, exactly when the ID
// set did not move.
func TestSyncMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	key, _ := scrypto.NewHopCMAC(scrypto.DeriveHopKey([]byte("k"), 0))
	weird, err := segment.Originate(100, 1, addr.MustIA(65, 0), 1, addr.MustIA(65, 9), 5, 63, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := weird.Extend(segment.ASEntry{IA: addr.MustIA(65, 9), Ingress: 2, ExpTime: 63}, key); err != nil {
		t.Fatal(err)
	}
	pool := []*segment.Segment{weird}
	for len(pool) < 120 {
		pool = append(pool, randSeg(t, rng))
	}
	var shapes []addr.IA
	for isd := 64; isd < 67; isd++ {
		shapes = append(shapes, queryShapes(addr.MustIA(addr.ISD(isd), 3))...)
	}
	answers := func(db *DB) [][]string {
		var out [][]string
		for _, f := range shapes {
			for _, l := range shapes {
				out = append(out, ids(db.Get(f, l)))
			}
		}
		return out
	}
	sameAnswers := func(when string, got, want *DB) {
		t.Helper()
		g, w := answers(got), answers(want)
		for i := range w {
			if !slices.Equal(g[i], w[i]) {
				t.Fatalf("%s: query %d (first %v, last %v) answers %v, want %v",
					when, i, shapes[i/len(shapes)], shapes[i%len(shapes)], g[i], w[i])
			}
		}
		if got.Len() != want.Len() {
			t.Fatalf("%s: %d segments, want %d", when, got.Len(), want.Len())
		}
	}
	pick := func(share float64) []*segment.Segment {
		var out []*segment.Segment
		for _, s := range pool {
			if rng.Float64() < share {
				out = append(out, s)
			}
		}
		return out
	}
	rebuilt := func(segs []*segment.Segment) *DB {
		db := New()
		db.InsertAll(segs)
		return db
	}

	moved, stayed := 0, 0
	for round := 0; round < 60; round++ {
		held := pick([]float64{0, 0.3, 0.6, 1}[rng.Intn(4)])
		wanted := held
		switch rng.Intn(4) {
		case 0: // the same set
		case 1:
			wanted = pick(0.5)
		case 2:
			wanted = nil
		case 3: // a few removed, a few added
			wanted = slices.Clone(held)
			for i := 0; i < 3 && len(wanted) > 0; i++ {
				wanted = slices.Delete(wanted, 0, 1)
			}
			wanted = append(wanted, pick(0.03)...)
		}
		base := rebuilt(held)
		sibling := base.CloneShared()
		before := rebuilt(held)
		stamp := base.Stamp()

		want := make(map[string]*segment.Segment, len(wanted))
		for _, s := range wanted {
			want[s.ID()] = s
		}
		synced := base.Synced(want)

		sameAnswers("synced store", synced, rebuilt(wanted))
		sameAnswers("store synced from", base, before)
		sameAnswers("CloneShared sibling", sibling, before)
		if base.Stamp() != stamp {
			t.Fatal("Synced moved the stamp of the store it read")
		}
		sameSet := slices.Equal(ids(base.All()), ids(rebuilt(wanted).All()))
		switch {
		case sameSet && (synced != base || synced.Stamp() != stamp):
			t.Fatalf("round %d: ID set unchanged, yet a new store (stamp %d -> %d)", round, stamp, synced.Stamp())
		case !sameSet && (synced == base || synced.Stamp() == stamp):
			t.Fatalf("round %d: ID set moved, stamp did not", round)
		}
		if sameSet {
			stayed++
		} else {
			moved++
			// The synced store is its own: mutating it reaches neither
			// the store it came from nor that store's sibling.
			synced.Insert(randSeg(t, rng))
			sameAnswers("store synced from, after the synced one grew", base, before)
			sameAnswers("sibling, after the synced one grew", sibling, before)
		}
	}
	if moved == 0 || stayed == 0 {
		t.Fatalf("%d rounds moved the ID set, %d did not; want both", moved, stayed)
	}
}
