package scenarios_test

import (
	"testing"
	"time"

	"sciera/internal/core"
	"sciera/internal/simnet"
)

// TestCrossISDPaths verifies the Section 3.2/3.3 property: the two
// ISD 64 ASes (the Swiss production ISD, reached through SWITCH) are
// reachable from the SCIERA ISD over the inter-ISD core link, and the
// paths verify end to end.
func TestCrossISDPaths(t *testing.T) {
	topo, err := deployment().Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n, err := core.Build(topo, sim, core.Options{Seed: 5, BestPerOrigin: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	ethz := ia("64-2:0:9")
	swiss := ia("64-559")
	for _, dst := range []string{"71-20965", "71-2:0:5c", "71-2:0:3b", "71-1140"} {
		dstIA := ia(dst)
		paths := n.Paths(ethz, dstIA)
		if len(paths) == 0 {
			t.Errorf("no cross-ISD paths ETH Zurich -> %v", dstIA)
			continue
		}
		// Every cross-ISD path transits the Swiss core and GEANT.
		for _, p := range paths {
			ases := p.ASes()
			foundSwiss, foundGEANT := false, false
			for _, a := range ases {
				if a == swiss {
					foundSwiss = true
				}
				if a == ia("71-20965") {
					foundGEANT = true
				}
			}
			if !foundSwiss || !foundGEANT {
				t.Errorf("cross-ISD path skips the inter-ISD core link: %v", ases)
			}
			if a := ases[0]; a != ethz {
				t.Errorf("path starts at %v", a)
			}
		}
	}

	// And the reverse direction.
	if paths := n.Paths(ia("71-2:0:5c"), ethz); len(paths) == 0 {
		t.Error("no paths UFMS -> ETH Zurich")
	}

	// End-to-end SCMP over the cross-ISD path (full data plane).
	resp, err := n.AttachResponder(ethz)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Close()
	pinger, err := n.NewPinger(ia("71-1140")) // SIDN Labs
	if err != nil {
		t.Fatal(err)
	}
	defer pinger.Close()
	paths := n.Paths(ia("71-1140"), ethz)
	if len(paths) == 0 {
		t.Fatal("no SIDN -> ETHZ paths")
	}
	var rtt time.Duration
	var perr error
	pinger.Ping(ethz, resp.Addr().Addr(), paths[0], 5*time.Second, func(d time.Duration, err error) {
		rtt, perr = d, err
	})
	sim.RunFor(10 * time.Second)
	if perr != nil {
		t.Fatalf("cross-ISD ping: %v", perr)
	}
	// Arnhem -> Zurich over Frankfurt: a regional RTT.
	if rtt < time.Millisecond || rtt > 100*time.Millisecond {
		t.Errorf("cross-ISD RTT = %v", rtt)
	}
}
