package combinator

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"sciera/internal/addr"
)

func TestFingerprintFormat(t *testing.T) {
	// The fingerprint doubles as a tiebreak in Combine's sort order, so
	// its bytes must stay exactly the historical fmt-built
	// "<ia>#<ifid>>" chain. Pin it, covering both AS notations.
	if got := fingerprint(nil); got != "direct" {
		t.Fatalf("fingerprint(nil) = %q, want %q", got, "direct")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		ifs := make([]PathInterface, 1+rng.Intn(6))
		want := ""
		for j := range ifs {
			ifs[j] = PathInterface{
				IA:   addr.MustIA(addr.ISD(rng.Intn(1<<16)), addr.AS(rng.Int63())&addr.MaxAS),
				IfID: uint16(rng.Intn(1 << 16)),
			}
			want += fmt.Sprintf("%v#%d>", ifs[j].IA, ifs[j].IfID)
		}
		if got := fingerprint(ifs); got != want {
			t.Fatalf("fingerprint(%v) = %q, want %q", ifs, got, want)
		}
	}
}

// TestCandidateSize: Recombine holds its candidates in a stack array of
// 64 and build renders each one; a direction is two words, so a
// candidate stays at 72 bytes.
func TestCandidateSize(t *testing.T) {
	if got := unsafe.Sizeof(candidate{}); got > 72 {
		t.Errorf("candidate is %d bytes, want at most 72", got)
	}
}
