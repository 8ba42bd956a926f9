package daemon

import (
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/combinator"
)

// TestDaemonCombineCacheZeroAlloc guards the warm-hit invariant: when
// the control service answers NotModified, resolving the memoized
// combination must not allocate — the campaign hot path re-resolves
// every probe pair once per interval, and a warm lookup that allocated
// per call would dominate steady-state daemon cost at scale.
func TestDaemonCombineCacheZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	dst := addr.MustParseIA("71-11")
	now := time.Unix(1_700_000_000, 0)
	d := &Daemon{paths: map[addr.IA]pathEntry{
		dst: {
			gen:    7,
			paths:  []*combinator.Path{{Src: addr.MustParseIA("71-10"), Dst: dst, Fingerprint: "p"}},
			expiry: now.Add(time.Hour),
		},
	}}
	allocs := testing.AllocsPerRun(1000, func() {
		paths, ok := d.confirm(dst, 7, now)
		if !ok || len(paths) != 1 {
			t.Fatal("warm hit missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("combine-cache warm hit allocates %.1f times per lookup, want 0", allocs)
	}
	if hits, _, _ := d.CombineStats(); hits == 0 {
		t.Fatal("warm hits not counted")
	}
}
