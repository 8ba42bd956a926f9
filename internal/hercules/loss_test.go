package hercules_test

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"sciera/internal/hercules"
	"sciera/internal/pan"
)

// TestLossRecovery injects 5% packet loss on every send the network's
// latency model decides — the AS-internal legs; inter-AS circuits
// delay by their own wire — and verifies the selective-repeat
// machinery restores the data intact.
func TestLossRecovery(t *testing.T) {
	n, sim := dmz(t)
	defer n.Close()

	// Wrap the network's latency model with seeded random loss.
	orig := sim.Latency
	rng := rand.New(rand.NewSource(13))
	sim.Latency = func(from, to netip.AddrPort, size int) (time.Duration, bool) {
		d, ok := orig(from, to, size)
		if ok && rng.Float64() < 0.05 {
			return 0, false
		}
		return d, ok
	}

	dA, err := n.NewDaemon(lA)
	if err != nil {
		t.Fatal(err)
	}
	dB, err := n.NewDaemon(lB)
	if err != nil {
		t.Fatal(err)
	}
	hostA := pan.WithDaemon(sim, dA)
	hostB := pan.WithDaemon(sim, dB)

	recv, err := hercules.Receive(hostB, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	size := 200 * 1024
	data := make([]byte, size)
	rand.New(rand.NewSource(99)).Read(data)
	stats, err := hercules.Send(hostA, recv.Addr(), 7, data, hercules.Options{
		MaxPaths: 4,
		Window:   32,
		RTO:      200 * time.Millisecond,
		Timeout:  2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-recv.Results():
		if !bytes.Equal(res.Data, data) {
			t.Fatal("data corrupted despite retransmissions")
		}
	default:
		t.Fatal("transfer did not complete under loss")
	}
	if stats.Retransmits == 0 {
		t.Error("5% loss but zero retransmissions recorded")
	}
	t.Logf("recovered from loss with %d retransmissions (%d chunks)", stats.Retransmits, stats.Chunks)
}
