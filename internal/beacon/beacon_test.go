package beacon

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sciera/internal/addr"
	"sciera/internal/scrypto"
	"sciera/internal/segment"
)

var (
	origin = addr.MustParseIA("71-1")
	mid    = addr.MustParseIA("71-2")
	leaf   = addr.MustParseIA("71-10")
)

// key returns the AS's prepared hop-key CMAC (a 16-byte key cannot fail).
func key(ia addr.IA) *scrypto.CMAC {
	m, _ := scrypto.NewHopCMAC(scrypto.DeriveHopKey([]byte(ia.String()), 0))
	return m
}

// makeSeg builds origin -> mid (-> leaf if long) with a distinguishing
// origin egress interface so the routes differ (selection deduplicates
// by route, not by accumulator).
func makeSeg(t *testing.T, route uint16, long bool) *segment.Segment {
	t.Helper()
	s, err := segment.Originate(100, 7, origin, route, mid, 5, 63, key(origin))
	if err != nil {
		t.Fatal(err)
	}
	next := addr.IA(0)
	if long {
		next = leaf
	}
	if err := s.Extend(segment.ASEntry{IA: mid, Next: next, Ingress: 2, Egress: egressFor(long), ExpTime: 63}, key(mid)); err != nil {
		t.Fatal(err)
	}
	if long {
		if err := s.Extend(segment.ASEntry{IA: leaf, Ingress: 4, ExpTime: 63}, key(leaf)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func egressFor(long bool) uint16 {
	if long {
		return 3
	}
	return 0
}

func TestStoreInsertDedup(t *testing.T) {
	s := NewStore(4)
	seg1 := makeSeg(t, 1, false)
	if !s.Insert(seg1, 2) {
		t.Fatal("first insert rejected")
	}
	if s.Insert(seg1, 2) {
		t.Error("duplicate accepted")
	}
	if s.Len() != 1 {
		t.Errorf("len = %d", s.Len())
	}
	if got := s.Best(origin); len(got) != 1 || got[0].RecvIf != 2 {
		t.Errorf("Best = %+v", got)
	}
}

func TestStoreSelectionPrefersShort(t *testing.T) {
	s := NewStore(2)
	long1 := makeSeg(t, 1, true)
	long2 := makeSeg(t, 2, true)
	short := makeSeg(t, 3, false)
	if !s.Insert(long1, 1) || !s.Insert(long2, 1) {
		t.Fatal("inserts rejected")
	}
	// Store full of long beacons; a shorter one must displace one.
	if !s.Insert(short, 1) {
		t.Fatal("shorter beacon rejected by full store")
	}
	best := s.Best(origin)
	if len(best) != 2 {
		t.Fatalf("best = %d", len(best))
	}
	if best[0].Seg.Len() != 2 {
		t.Errorf("best beacon has %d entries, want the short one first", best[0].Seg.Len())
	}
	// Another long beacon competes only with the remaining long one
	// (same length, route-hash tie-break); whatever the outcome, the
	// short beacon stays first and the limit holds.
	long3 := makeSeg(t, 4, true)
	_ = s.Insert(long3, 1)
	best = s.Best(origin)
	if len(best) != 2 || best[0].Seg.Len() != 2 {
		t.Fatalf("selection invariants violated: %d entries, first len %d",
			len(best), best[0].Seg.Len())
	}
	// The short beacon can never be displaced by a long one.
	long4 := makeSeg(t, 5, true)
	_ = s.Insert(long4, 1)
	if s.Best(origin)[0].Seg.Len() != 2 {
		t.Error("short beacon displaced by longer one")
	}
	// Evicted beacons are re-insertable into a fresh store (the seen
	// set must not leak).
	s2 := NewStore(4)
	if !s2.Insert(long3, 1) {
		t.Error("beacon not insertable into fresh store")
	}
}

func TestStoreDefaults(t *testing.T) {
	s := NewStore(0)
	if s.limit != DefaultBestPerOrigin {
		t.Errorf("default limit = %d", s.limit)
	}
	if s.Insert(&segment.Segment{}, 0) {
		t.Error("empty segment accepted")
	}
	if s.String() == "" {
		t.Error("String empty")
	}
	all := s.All()
	if len(all) != 0 {
		t.Errorf("All on empty store = %v", all)
	}
}

func TestStorePerOriginLimits(t *testing.T) {
	s := NewStore(3)
	// Insert beacons from two different origins; limits are per origin.
	for i := 0; i < 5; i++ {
		seg, err := segment.Originate(100, 7, origin, uint16(i+1), mid, 5, 63, key(origin))
		if err != nil {
			t.Fatal(err)
		}
		if err := seg.Extend(segment.ASEntry{IA: mid, Ingress: 2, ExpTime: 63}, key(mid)); err != nil {
			t.Fatal(err)
		}
		s.Insert(seg, 1)
	}
	other := addr.MustParseIA("71-3")
	for i := 0; i < 5; i++ {
		seg, err := segment.Originate(100, 7, other, uint16(i+1), mid, 5, 63, key(other))
		if err != nil {
			t.Fatal(err)
		}
		if err := seg.Extend(segment.ASEntry{IA: mid, Ingress: 2, ExpTime: 63}, key(mid)); err != nil {
			t.Fatal(err)
		}
		s.Insert(seg, 1)
	}
	if len(s.Best(origin)) != 3 || len(s.Best(other)) != 3 {
		t.Errorf("per-origin best = %d / %d", len(s.Best(origin)), len(s.Best(other)))
	}
	if s.Len() != 6 {
		t.Errorf("total = %d", s.Len())
	}
}

// oracleStore is Store.Insert as it was before entries carried their
// route ID: append, re-sort the whole per-origin list hashing RouteID
// inside every comparison, then filter. It is the reference the
// binary-search Insert is checked against.
type oracleStore struct {
	limit, extraLen int
	byOrigin        map[addr.IA][]*Entry
	seen            map[string]bool
}

func (s *oracleStore) Insert(seg *segment.Segment, recvIf uint16) bool {
	if seg.Len() == 0 {
		return false
	}
	id := seg.RouteID()
	origin := seg.FirstIA()
	if s.seen[id] {
		return false
	}
	entries := append(s.byOrigin[origin], &Entry{Seg: seg, RecvIf: recvIf})
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].Seg, entries[j].Seg
		if a.Len() != b.Len() {
			return a.Len() < b.Len()
		}
		return a.RouteID() < b.RouteID()
	})
	accepted := true
	maxLen := entries[0].Seg.Len() + s.extraLen
	kept := entries[:0]
	for _, e := range entries {
		if len(kept) >= s.limit || e.Seg.Len() > maxLen {
			if e.Seg.RouteID() == id {
				accepted = false
			} else {
				delete(s.seen, e.Seg.RouteID())
			}
			continue
		}
		kept = append(kept, e)
	}
	s.byOrigin[origin] = kept
	if accepted {
		s.seen[id] = true
	}
	return accepted
}

// TestStoreInsertMatchesOracle drives the store and the sort-everything
// oracle with the same randomized beacon sequences — two origins,
// lengths spread wider than the length window so shorter arrivals evict
// the tail, repeated routes under fresh accumulators, limits from 1 to
// the default — and requires the same verdict after every insert and the
// same kept beacons in the same order.
func TestStoreInsertMatchesOracle(t *testing.T) {
	origins := []addr.IA{origin, addr.MustParseIA("71-3")}
	for _, limit := range []int{1, 3, 8, DefaultBestPerOrigin} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			store := NewStore(limit)
			oracle := &oracleStore{limit: limit, extraLen: DefaultMaxExtraLen,
				byOrigin: make(map[addr.IA][]*Entry), seen: make(map[string]bool)}
			var accepted, evicted, window, rejected int
			for step := 0; step < 400; step++ {
				// Long beacons first, then a one-hop beacon that pushes
				// them all out of the length window, then any length.
				hops := 1 + rng.Intn(7)
				if step < 100 {
					hops = 5 + rng.Intn(3)
				} else if step == 100 {
					hops = 1
				}
				from := origins[rng.Intn(len(origins))]
				// Few distinct interface IDs, so routes repeat.
				seg, err := segment.Originate(100, uint16(rng.Intn(1<<16)), from, uint16(1+rng.Intn(3)), mid, 5, 63, key(from))
				if err != nil {
					t.Fatal(err)
				}
				at := mid
				for h := 1; h < hops; h++ {
					next := addr.MustIA(71, addr.AS(100+h))
					e := segment.ASEntry{IA: at, Next: next, Ingress: uint16(1 + rng.Intn(2)), Egress: uint16(1 + rng.Intn(2)), ExpTime: 63}
					if err := seg.Extend(e, key(at)); err != nil {
						t.Fatal(err)
					}
					at = next
				}
				recvIf := uint16(1 + rng.Intn(4))
				prior := store.Best(from)
				got, want := store.Insert(seg, recvIf), oracle.Insert(seg, recvIf)
				if got != want {
					t.Fatalf("limit %d seed %d step %d: Insert = %v, oracle %v", limit, seed, step, got, want)
				}
				switch {
				case !got:
					rejected++
				case len(prior) > 0 && prior[len(prior)-1].Seg.Len() > seg.Len()+DefaultMaxExtraLen:
					accepted, window = accepted+1, window+1 // the new shortest pushed the tail out of the window
				case len(store.Best(from)) == len(prior):
					accepted, evicted = accepted+1, evicted+1 // displaced one at the limit
				default:
					accepted++
				}
				for _, o := range origins {
					kept, ref := store.Best(o), oracle.byOrigin[o]
					if len(kept) != len(ref) {
						t.Fatalf("limit %d seed %d step %d: %d kept for %v, oracle %d", limit, seed, step, len(kept), o, len(ref))
					}
					for i := range kept {
						if kept[i].Seg != ref[i].Seg || kept[i].RecvIf != ref[i].RecvIf {
							t.Fatalf("limit %d seed %d step %d: entry %d for %v differs from oracle", limit, seed, step, i, o)
						}
						if kept[i].Route != kept[i].Seg.RouteID() {
							t.Fatalf("limit %d seed %d step %d: stored route ID is stale", limit, seed, step)
						}
					}
				}
				// The store refuses a route it holds; the oracle keeps
				// a seen set, which must hold exactly those routes.
				if store.Len() != len(oracle.seen) {
					t.Fatalf("limit %d seed %d step %d: %d stored, oracle's seen set %d", limit, seed, step, store.Len(), len(oracle.seen))
				}
			}
			if evicted == 0 || window == 0 || rejected == 0 {
				t.Fatalf("limit %d seed %d: %d accepts, of which %d evicted at the limit and %d through the length window, %d rejects; want all kinds",
					limit, seed, accepted, evicted, window, rejected)
			}
		}
	}
}

func TestRunnerRequiresTopo(t *testing.T) {
	r := &Runner{}
	if _, err := r.Run(); err == nil {
		t.Error("Run without a topology and keys accepted")
	}
}

func ExampleStore() {
	s := NewStore(8)
	fmt.Println(s.Len())
	// Output: 0
}

// fuzzBeacon maps three bytes onto a bare (unMACed) beacon: one of two
// origins, one to eight AS hops over a fixed AS chain, and interface IDs
// drawn from a few values so that routes repeat. Origin and length are
// properties of the route, as they are of every real beacon.
func fuzzBeacon(b0, b1, b2 byte) *segment.Segment {
	from := []addr.IA{origin, addr.MustParseIA("71-3")}[b0&1]
	hops := 1 + int(b0>>1)%8
	seg := &segment.Segment{Timestamp: 100, ASEntries: []segment.ASEntry{{IA: from, Egress: 1 + uint16(b1%4)}}}
	for h := 1; h < hops; h++ {
		seg.ASEntries = append(seg.ASEntries, segment.ASEntry{
			IA: addr.MustIA(71, addr.AS(100+h)), Ingress: 1 + uint16(b2>>h)&1, Egress: 1 + uint16(b1>>h)&1,
		})
	}
	return seg
}

// FuzzStoreAdmit checks two properties of the beacon store. Over any
// beacon sequence, Admits — asked with origin, length and route alone —
// answers what Insert then returns, which is what the sort-everything
// oracle returns, and the two keep the same beacons. And a candidate a
// store has refused stays refused whatever is inserted afterwards: a
// store only tightens.
func FuzzStoreAdmit(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 0, 0, 0})                                 // a duplicate at limit 1
	f.Add(uint8(1), []byte{10, 1, 0, 10, 2, 0, 10, 3, 0, 8, 0, 0})            // the limit displaces, then a shorter beacon
	f.Add(uint8(2), []byte{14, 0, 0, 14, 1, 0, 12, 0, 0, 0, 0, 0, 14, 0, 0})  // a one-hop beacon closes the length window
	f.Add(uint8(5), []byte{3, 7, 9, 5, 1, 1, 3, 7, 9, 2, 0, 0, 13, 200, 100}) // both origins
	f.Fuzz(func(t *testing.T, limit uint8, data []byte) {
		lim := 1 + int(limit%6)
		store := NewStore(lim)
		oracle := &oracleStore{limit: lim, extraLen: DefaultMaxExtraLen,
			byOrigin: make(map[addr.IA][]*Entry), seen: make(map[string]bool)}
		var refused []*Entry
		for i := 0; i+2 < len(data) && i < 3*64; i += 3 {
			e := NewEntry(fuzzBeacon(data[i], data[i+1], data[i+2]), 1)
			from := e.Seg.FirstIA()
			admits := store.Admits(from, e.Seg.Len(), e.Route)
			got, want := store.InsertEntry(e), oracle.Insert(e.Seg, 1)
			if admits != got || got != want {
				t.Fatalf("step %d: Admits %v, Insert %v, oracle %v", i/3, admits, got, want)
			}
			kept, ref := store.Best(from), oracle.byOrigin[from]
			if len(kept) != len(ref) {
				t.Fatalf("step %d: %d kept, oracle %d", i/3, len(kept), len(ref))
			}
			for j := range kept {
				if kept[j].Seg != ref[j].Seg {
					t.Fatalf("step %d: entry %d differs from oracle", i/3, j)
				}
			}
			if !got {
				refused = append(refused, e)
			}
			for _, r := range refused {
				if store.Admits(r.Seg.FirstIA(), r.Seg.Len(), r.Route) {
					t.Fatalf("step %d: refused beacon %s (%d hops) became admissible", i/3, r.Route, r.Seg.Len())
				}
			}
		}
	})
}
