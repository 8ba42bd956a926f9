package pathdb

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/scrypto"
	"sciera/internal/segment"
)

// randSeg builds a random two-to-four-entry segment between IAs drawn
// from small ISD/AS pools, so endpoint collisions (and therefore
// multi-segment buckets) are common.
func randSeg(t *testing.T, rng *rand.Rand) *segment.Segment {
	t.Helper()
	key, _ := scrypto.NewHopCMAC(scrypto.DeriveHopKey([]byte("k"), 0))
	ia := func() addr.IA {
		return addr.MustIA(addr.ISD(64+rng.Intn(3)), addr.AS(1+rng.Intn(6)))
	}
	next := ia()
	s, err := segment.Originate(uint32(1000+rng.Intn(100000)), uint16(rng.Intn(1<<16)),
		ia(), uint16(1+rng.Intn(8)), next, 5, 63, key)
	if err != nil {
		t.Fatal(err)
	}
	hops := 1 + rng.Intn(3)
	for i := 0; i < hops; i++ {
		e := segment.ASEntry{IA: next, Ingress: uint16(1 + rng.Intn(8)), ExpTime: 63}
		if i < hops-1 {
			next = ia()
			e.Egress = uint16(1 + rng.Intn(8))
			e.Next = next
		}
		if err := s.Extend(e, key); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// queryShapes enumerates every wildcard combination for a (first, last)
// endpoint pair: exact, ISD wildcard, AS-only wildcard (the unindexed
// fallback shape), and any, on both sides.
func queryShapes(ia addr.IA) []addr.IA {
	return []addr.IA{
		ia,                               // exact
		addr.MustIA(ia.ISD(), 0),         // ISD wildcard
		addr.MustIA(0, ia.AS()),          // AS-only wildcard (scan fallback)
		0,                                // any
		addr.MustIA(ia.ISD()+1, ia.AS()), // non-matching exact
		addr.MustIA(addr.ISD(99), 0),     // non-matching ISD wildcard
	}
}

func ids(segs []*segment.Segment) []string {
	out := make([]string, len(segs))
	for i, s := range segs {
		out[i] = s.ID()
	}
	return out
}

// scanIDs is the linear reference scan's answer, as IDs hashed afresh
// from the segments rather than read from the entries.
func scanIDs(db *DB, first, last addr.IA) []string {
	var out []string
	for _, e := range db.scanLocked(first, last) {
		out = append(out, e.seg.ID())
	}
	return out
}

// TestIndexedGetMatchesLinearScan is the index's correctness property:
// on randomized segment sets, Get must return exactly what the linear
// reference scan returns — same segments, same (segment-ID-sorted)
// order — for every wildcard combination of both endpoints.
func TestIndexedGetMatchesLinearScan(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := New()
		var stored []*segment.Segment
		for i := 0; i < 120; i++ {
			s := randSeg(t, rng)
			if db.Insert(s) {
				stored = append(stored, s)
			}
			if rng.Intn(10) == 0 && len(stored) > 0 {
				// Exercise removal maintenance mid-build.
				db.DeleteExpired(stored[rng.Intn(len(stored))].Expiry().Add(time.Second))
			}
			pick := stored[rng.Intn(len(stored))]
			for _, first := range queryShapes(pick.FirstIA()) {
				for _, last := range queryShapes(pick.LastIA()) {
					got := ids(db.Get(first, last))
					want := scanIDs(db, first, last)
					if len(got) != len(want) {
						t.Fatalf("seed %d: Get(%v,%v) = %d segs, scan = %d",
							seed, first, last, len(got), len(want))
					}
					for j := range got {
						if got[j] != want[j] {
							t.Fatalf("seed %d: Get(%v,%v)[%d] = %s, scan %s",
								seed, first, last, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}

// TestGetSortedByID pins the ordering contract: results come back
// sorted by segment ID straight from the store.
func TestGetSortedByID(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := New()
	for i := 0; i < 64; i++ {
		db.Insert(randSeg(t, rng))
	}
	for _, q := range [][2]addr.IA{{0, 0}, {addr.MustIA(64, 0), 0}, {0, addr.MustIA(65, 0)}} {
		got := ids(db.Get(q[0], q[1]))
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("Get(%v,%v) not ID-sorted at %d: %s >= %s", q[0], q[1], i, got[i-1], got[i])
			}
		}
	}
}

// TestWeirdEndpointSegments covers segments whose own endpoints carry
// wildcard components: they bypass the index but must still be found
// (merged in ID order) by every query they match.
func TestWeirdEndpointSegments(t *testing.T) {
	key, _ := scrypto.NewHopCMAC(scrypto.DeriveHopKey([]byte("k"), 0))
	db := New()
	w, err := segment.Originate(100, 1, addr.MustIA(71, 0), 1, addr.MustIA(71, 9), 5, 63, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Extend(segment.ASEntry{IA: addr.MustIA(71, 9), Ingress: 2, ExpTime: 63}, key); err != nil {
		t.Fatal(err)
	}
	if !db.Insert(w) {
		t.Fatal("weird segment rejected")
	}
	db.Insert(seg(t, 100, coreIA, leafIA))
	for _, q := range [][2]addr.IA{{0, 0}, {addr.MustIA(71, 0), 0}} {
		got := ids(db.Get(q[0], q[1]))
		want := scanIDs(db, q[0], q[1])
		if len(got) != len(want) {
			t.Fatalf("Get(%v,%v) = %d, scan = %d", q[0], q[1], len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Get(%v,%v) diverges from scan at %d", q[0], q[1], i)
			}
		}
	}
}

// TestStampChangesOnMutation pins the memoization token: any mutation
// (insert, expiry sweep that removed something, clear) must change the
// stamp, and stamps must differ across store instances.
func TestStampChangesOnMutation(t *testing.T) {
	db := New()
	s0 := db.Stamp()
	if s0 == 0 {
		t.Fatal("zero stamp: daemons use 0 as the no-cached-state sentinel")
	}
	old := seg(t, 1000, coreIA, leafIA)
	db.Insert(old)
	s1 := db.Stamp()
	if s1 == s0 {
		t.Fatal("stamp unchanged by Insert")
	}
	if db.Stamp() != s1 {
		t.Fatal("stamp changed without mutation")
	}
	if db.DeleteExpired(old.Expiry().Add(-time.Hour)) != 0 && db.Stamp() != s1 {
		t.Fatal("no-op expiry sweep changed the stamp")
	}
	if db.DeleteExpired(old.Expiry().Add(time.Hour)) != 1 {
		t.Fatal("expiry sweep removed nothing")
	}
	if db.Stamp() == s1 {
		t.Fatal("stamp unchanged by DeleteExpired")
	}
	s2 := db.Stamp()
	db.Clear()
	if db.Stamp() == s2 {
		t.Fatal("stamp unchanged by Clear")
	}
	if other := New(); other.Stamp() == New().Stamp() {
		t.Fatal("distinct instances share a stamp")
	}
}

func BenchmarkGetIndexed(b *testing.B) {
	benchGet(b, func(db *DB, first, last addr.IA) int { return len(db.Get(first, last)) })
}

func BenchmarkGetScan(b *testing.B) {
	benchGet(b, func(db *DB, first, last addr.IA) int { return len(db.scanLocked(first, last)) })
}

func benchGet(b *testing.B, get func(*DB, addr.IA, addr.IA) int) {
	rng := rand.New(rand.NewSource(1))
	db := New()
	key, _ := scrypto.NewHopCMAC(scrypto.DeriveHopKey([]byte("k"), 0))
	for i := 0; i < 2000; i++ {
		from := addr.MustIA(addr.ISD(64+rng.Intn(3)), addr.AS(1+rng.Intn(40)))
		to := addr.MustIA(addr.ISD(64+rng.Intn(3)), addr.AS(1+rng.Intn(40)))
		s, err := segment.Originate(uint32(1000+i), uint16(rng.Intn(1<<16)), from, 1, to, 5, 63, key)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Extend(segment.ASEntry{IA: to, Ingress: 2, ExpTime: 63}, key); err != nil {
			b.Fatal(err)
		}
		db.Insert(s)
	}
	first := addr.MustIA(64, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(db, first, 0)
	}
}

// TestInsertAllMatchesInserts: a bulk load leaves the store exactly as
// one Insert per segment does — every query shape on both endpoints,
// with in-batch and against-store duplicates, wildcard-endpoint
// segments, and Gen/Stamp moved by the number of new segments. A
// CloneShared sibling taken before the load must not see it.
func TestInsertAllMatchesInserts(t *testing.T) {
	key, _ := scrypto.NewHopCMAC(scrypto.DeriveHopKey([]byte("k"), 0))
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var base, batch []*segment.Segment
		for i := 0; i < 40; i++ {
			base = append(base, randSeg(t, rng))
		}
		for i := 0; i < 150; i++ {
			batch = append(batch, randSeg(t, rng))
		}
		weird, err := segment.Originate(uint32(100+seed), 1, addr.MustIA(64, 0), 1, addr.MustIA(64, 9), 5, 63, key)
		if err != nil {
			t.Fatal(err)
		}
		// Duplicates inside the batch and of stored segments, an
		// unindexable segment, and the entries Insert refuses.
		batch = append(batch, batch[3], base[5], weird, nil, &segment.Segment{}, weird)

		one, bulk := New(), New()
		for _, s := range base {
			one.Insert(s)
			bulk.Insert(s)
		}
		sibling := bulk.CloneShared()
		before := ids(sibling.All())
		gen0, stamp0 := bulk.Gen(), bulk.Stamp()

		added := 0
		for _, s := range batch {
			if one.Insert(s) {
				added++
			}
		}
		if got := bulk.InsertAll(batch); got != added {
			t.Fatalf("seed %d: InsertAll added %d, inserts added %d", seed, got, added)
		}
		if bulk.Gen() != gen0+uint64(added) || bulk.Gen() != one.Gen() {
			t.Errorf("seed %d: Gen %d after %d new segments from %d (inserts: %d)", seed, bulk.Gen(), added, gen0, one.Gen())
		}
		if bulk.Stamp() == stamp0 {
			t.Errorf("seed %d: Stamp unchanged by a bulk load", seed)
		}
		if bulk.Len() != one.Len() {
			t.Fatalf("seed %d: %d segments, inserts %d", seed, bulk.Len(), one.Len())
		}
		for _, pick := range append(batch[:20:20], weird) {
			for _, first := range queryShapes(pick.FirstIA()) {
				for _, last := range queryShapes(pick.LastIA()) {
					if got, want := bulk.Get(first, last), one.Get(first, last); !sameSegs(got, want) {
						t.Fatalf("seed %d: Get(%v,%v) = %v after bulk load, %v after inserts", seed, first, last, ids(got), ids(want))
					}
				}
			}
		}
		if after := ids(sibling.All()); !slices.Equal(before, after) {
			t.Errorf("seed %d: bulk load wrote through to a CloneShared sibling: %d -> %d segments", seed, len(before), len(after))
		}
		if n := bulk.InsertAll(batch); n != 0 || bulk.Gen() != one.Gen() {
			t.Errorf("seed %d: reloading the batch added %d, Gen %d (want 0, %d)", seed, n, bulk.Gen(), one.Gen())
		}
	}
}

// TestVisitMatchesGet: Visit yields Get's segments in Get's order, each
// with the ID the segment hashes to.
func TestVisitMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := New()
	for i := 0; i < 80; i++ {
		db.Insert(randSeg(t, rng))
	}
	for _, pick := range db.All()[:10] {
		for _, first := range queryShapes(pick.FirstIA()) {
			for _, last := range queryShapes(pick.LastIA()) {
				var segs []*segment.Segment
				db.Visit(first, last, func(id string, s *segment.Segment) {
					if id != s.ID() {
						t.Fatalf("Visit(%v,%v) handed ID %s for segment %s", first, last, id, s.ID())
					}
					segs = append(segs, s)
				})
				if !sameSegs(segs, db.Get(first, last)) {
					t.Fatalf("Visit(%v,%v) differs from Get", first, last)
				}
			}
		}
	}
}

// TestScansCountsWhatTheIndexDoesNotAnswer: the three shapes keysOf
// files — (exact, exact), (any, exact), (any, any) — never scan; every
// other shape does, and so does every shape once the store holds a
// segment with a wildcard endpoint, until that segment is gone again.
func TestScansCountsWhatTheIndexDoesNotAnswer(t *testing.T) {
	db := New()
	db.Insert(seg(t, 100, coreIA, leafIA))
	db.Insert(seg(t, 200, coreIA, otherIA))
	isd := addr.MustIA(71, 0)
	for _, q := range [][2]addr.IA{{coreIA, leafIA}, {0, leafIA}, {0, 0}, {leafIA, coreIA}} {
		db.Get(q[0], q[1])
		db.Visit(q[0], q[1], func(string, *segment.Segment) {})
	}
	if n := db.Scans(); n != 0 {
		t.Fatalf("%d scans for indexed shapes", n)
	}
	unindexed := [][2]addr.IA{{coreIA, 0}, {isd, leafIA}, {0, isd}, {coreIA, isd}, {addr.MustIA(0, 1), leafIA}}
	for _, q := range unindexed {
		db.Get(q[0], q[1])
	}
	if n := db.Scans(); n != uint64(len(unindexed)) {
		t.Fatalf("%d scans for %d unindexed shapes", n, len(unindexed))
	}
	if c := db.CloneShared(); c.Scans() != 0 {
		t.Fatal("a clone starts with its source's scan count")
	}

	key, _ := scrypto.NewHopCMAC(scrypto.DeriveHopKey([]byte("k"), 0))
	w, err := segment.Originate(1, 1, isd, 1, leafIA, 5, 63, key)
	if err != nil {
		t.Fatal(err)
	}
	db.Insert(w)
	before := db.Scans()
	if got := db.Get(0, leafIA); len(got) != 2 || db.Scans() != before+1 {
		t.Fatalf("with a wildcard-endpoint segment stored: %d segments, %d new scans; want 2 and 1", len(got), db.Scans()-before)
	}
	db.DeleteExpired(w.Expiry().Add(time.Second))
	before = db.Scans()
	if got := db.Get(0, leafIA); len(got) != 1 || db.Scans() != before {
		t.Fatalf("after it expired: %d segments, %d new scans; want 1 and 0", len(got), db.Scans()-before)
	}
}
