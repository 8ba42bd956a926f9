package pathdb

import (
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/scrypto"
	"sciera/internal/segment"
)

var (
	coreIA  = addr.MustParseIA("71-1")
	leafIA  = addr.MustParseIA("71-10")
	otherIA = addr.MustParseIA("71-11")
)

func seg(t *testing.T, ts uint32, from, to addr.IA) *segment.Segment {
	t.Helper()
	key, _ := scrypto.NewHopCMAC(scrypto.DeriveHopKey([]byte("k"), 0))
	s, err := segment.Originate(ts, 1, from, 1, to, 5, 63, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Extend(segment.ASEntry{IA: to, Ingress: 2, ExpTime: 63}, key); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInsertAndGet(t *testing.T) {
	db := New()
	s1 := seg(t, 100, coreIA, leafIA)
	s2 := seg(t, 200, coreIA, otherIA)
	if !db.Insert(s1) || !db.Insert(s2) {
		t.Fatal("insert failed")
	}
	if db.Insert(s1) {
		t.Error("duplicate insert accepted")
	}
	if db.Len() != 2 {
		t.Errorf("len = %d", db.Len())
	}
	if got := db.Get(coreIA, leafIA); len(got) != 1 || got[0].ID() != s1.ID() {
		t.Errorf("Get exact = %v", got)
	}
	if got := db.Get(coreIA, 0); len(got) != 2 {
		t.Errorf("Get wildcard last = %d", len(got))
	}
	if got := db.Get(0, 0); len(got) != 2 {
		t.Errorf("Get all = %d", len(got))
	}
	if got := db.Get(leafIA, coreIA); len(got) != 0 {
		t.Errorf("Get reversed = %v", got)
	}
	if got := db.All(); len(got) != 2 {
		t.Errorf("All = %d", len(got))
	}
}

func TestWildcardASWithinISD(t *testing.T) {
	db := New()
	db.Insert(seg(t, 100, coreIA, leafIA))
	// Wildcard AS in ISD 71 matches; ISD 64 does not.
	if got := db.Get(addr.MustParseIA("71-0"), 0); len(got) != 1 {
		t.Errorf("ISD wildcard = %d", len(got))
	}
	if got := db.Get(addr.MustParseIA("64-0"), 0); len(got) != 0 {
		t.Errorf("foreign ISD wildcard = %d", len(got))
	}
}

func TestInsertRejectsEmpty(t *testing.T) {
	db := New()
	if db.Insert(nil) || db.Insert(&segment.Segment{}) {
		t.Error("empty segment accepted")
	}
}

func TestDeleteExpired(t *testing.T) {
	db := New()
	old := seg(t, 1000, coreIA, leafIA) // expires 1000s + 6h
	fresh := seg(t, uint32(time.Now().Unix()), coreIA, otherIA)
	db.Insert(old)
	db.Insert(fresh)
	n := db.DeleteExpired(time.Now())
	if n != 1 || db.Len() != 1 {
		t.Errorf("expired = %d, len = %d", n, db.Len())
	}
	if got := db.Get(coreIA, otherIA); len(got) != 1 {
		t.Error("fresh segment removed")
	}
}

func TestClear(t *testing.T) {
	db := New()
	db.Insert(seg(t, 100, coreIA, leafIA))
	db.Clear()
	if db.Len() != 0 {
		t.Error("Clear left segments behind")
	}
	// Reinsert after clear works.
	if !db.Insert(seg(t, 100, coreIA, leafIA)) {
		t.Error("insert after clear failed")
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := New()
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 100; i++ {
				db.Insert(seg(t, uint32(g*1000+i), coreIA, leafIA))
				db.Get(coreIA, 0)
				db.Len()
			}
			done <- true
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
