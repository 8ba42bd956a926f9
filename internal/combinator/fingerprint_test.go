package combinator

import (
	"fmt"
	"math/rand"
	"testing"

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
