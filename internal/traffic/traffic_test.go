package traffic

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/core"
	"sciera/internal/simnet"
	"sciera/internal/slayers"
	"sciera/internal/topology"
)

var (
	iaA = addr.MustParseIA("71-1")
	iaZ = addr.MustParseIA("71-2")
)

// testNet is the minimal load target: two core ASes, one circuit.
func testNet(t testing.TB) (*core.Network, *simnet.Sim) {
	t.Helper()
	topo := topology.New()
	for _, ia := range []addr.IA{iaA, iaZ} {
		if err := topo.AddAS(topology.ASInfo{IA: ia, Core: true}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := topo.AddLink(topology.LinkEnd{IA: iaA}, topology.LinkEnd{IA: iaZ}, topology.LinkCore, 1, ""); err != nil {
		t.Fatal(err)
	}
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n, err := core.Build(topo, sim, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return n, sim
}

// TestPatchSeqMatchesReserialize proves the incremental-checksum seq
// stamp is exactly equivalent to re-serializing the packet with the new
// seq value: byte-identical output, and the router's checksum
// verification accepts it. This is what lets a flow serialize once and
// emit thousands of packets.
func TestPatchSeqMatchesReserialize(t *testing.T) {
	n, _ := testNet(t)
	e, err := New(n, Config{
		Pairs:       []Pair{{Src: iaA, Dst: iaZ}},
		ArrivalRate: 1,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	tmpl := &e.pairs[0].templates[0]
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		pl := tmpl.payload
		copy(pl[payloadMagicOff:], payloadMagic[:])
		binary.BigEndian.PutUint32(pl[payloadFlowOff:], rng.Uint32())
		binary.BigEndian.PutUint32(pl[payloadEndpointOff:], rng.Uint32())
		binary.BigEndian.PutUint32(pl[payloadTotalOff:], rng.Uint32())
		binary.BigEndian.PutUint64(pl[payloadArrivalOff:], rng.Uint64())
		seq0 := rng.Uint32()
		seq1 := rng.Uint32()

		binary.BigEndian.PutUint32(pl[payloadSeqOff:], seq0)
		tmpl.pkt.Payload = pl
		patched, err := tmpl.pkt.Serialize(nil)
		if err != nil {
			t.Fatal(err)
		}
		l4Off := int(binary.BigEndian.Uint16(patched[6:8]))
		patchSeq(patched, l4Off, seq1)

		binary.BigEndian.PutUint32(pl[payloadSeqOff:], seq1)
		direct, err := tmpl.pkt.Serialize(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(patched, direct) {
			t.Fatalf("trial %d: patched serialization differs from direct (seq %d -> %d)", trial, seq0, seq1)
		}
		var dec slayers.Packet
		if err := dec.Decode(patched); err != nil {
			t.Fatalf("trial %d: patched packet fails checksum: %v", trial, err)
		}
	}
}

func runEngine(t testing.TB, seed int64) (Stats, string, int) {
	t.Helper()
	n, sim := testNet(t)
	e, err := New(n, Config{
		Pairs:          []Pair{{Src: iaA, Dst: iaZ}, {Src: iaZ, Dst: iaA}},
		Endpoints:      1 << 16,
		ArrivalRate:    2000,
		FlowSizes:      Pareto{},
		PayloadBytes:   120,
		PacketInterval: 2 * time.Millisecond,
		Burst:          4,
		Seed:           seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Start(500 * time.Millisecond)
	sim.Run()
	return e.Stats(), fmt.Sprintf("%+v", e.FCT()), sim.PeakPending()
}

// TestEngineDrivesFlows checks the engine end-to-end on a lossless
// two-AS network: open-loop arrivals start flows, every injected packet
// crosses the data plane to the sink, and every flow completes with a
// measured FCT.
func TestEngineDrivesFlows(t *testing.T) {
	st, _, peak := runEngine(t, 42)
	if st.FlowsStarted < 500 {
		t.Fatalf("too few flows for a 500ms window at 2000/s x 2 pairs: %d", st.FlowsStarted)
	}
	if st.FlowsCompleted != st.FlowsStarted {
		t.Fatalf("flows completed %d != started %d on a lossless network", st.FlowsCompleted, st.FlowsStarted)
	}
	if st.ActiveFlows != 0 {
		t.Fatalf("active flows %d after full drain", st.ActiveFlows)
	}
	if st.PacketsDelivered != st.PacketsSent {
		t.Fatalf("packets delivered %d != sent %d on a lossless network", st.PacketsDelivered, st.PacketsSent)
	}
	if st.PacketsSent < st.FlowsStarted*2 {
		t.Fatalf("packet count %d implausibly low for %d flows (min size 2)", st.PacketsSent, st.FlowsStarted)
	}
	if st.EndpointsTouched < 400 || st.EndpointsTouched > int(st.FlowsStarted) {
		t.Fatalf("endpoints touched %d implausible for %d flows", st.EndpointsTouched, st.FlowsStarted)
	}
	if st.PeakActiveFlows < 10 {
		t.Fatalf("peak active flows %d: pacing should overlap flows", st.PeakActiveFlows)
	}
	if peak < st.PeakActiveFlows {
		t.Fatalf("sim peak pending %d below peak active flows %d: each active flow holds a pending event", peak, st.PeakActiveFlows)
	}
}

// TestEngineDeterministic: identical Config, identical everything —
// counters, endpoint coverage, the full FCT histogram.
func TestEngineDeterministic(t *testing.T) {
	s1, h1, p1 := runEngine(t, 42)
	s2, h2, p2 := runEngine(t, 42)
	if s1 != s2 {
		t.Fatalf("stats diverged across identical runs:\n  %+v\n  %+v", s1, s2)
	}
	if h1 != h2 {
		t.Fatalf("FCT histograms diverged:\n  %s\n  %s", h1, h2)
	}
	if p1 != p2 {
		t.Fatalf("peak pending diverged: %d vs %d", p1, p2)
	}
	s3, _, _ := runEngine(t, 43)
	if s3 == s1 {
		t.Fatal("different seeds produced identical stats: rng not wired through")
	}
}

// TestEngineIncompleteFlowsOnLoss drops a slice of packets via a lossy
// latency model and checks the engine attributes it: sent > delivered,
// and the partially-delivered flows stay visible as incomplete.
func TestEngineIncompleteFlowsOnLoss(t *testing.T) {
	n, sim := testNet(t)
	inner := sim.Latency
	drop := 0
	sim.Latency = func(from, to netip.AddrPort, size int, now time.Time) (time.Duration, bool) {
		d, ok := inner(from, to, size, now)
		if ok && size > 100 {
			drop++
			if drop%7 == 0 {
				return 0, false
			}
		}
		return d, ok
	}
	e, err := New(n, Config{
		Pairs:          []Pair{{Src: iaA, Dst: iaZ}},
		ArrivalRate:    1000,
		PayloadBytes:   120,
		PacketInterval: time.Millisecond,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Start(200 * time.Millisecond)
	sim.Run()
	st := e.Stats()
	if st.PacketsDelivered >= st.PacketsSent {
		t.Fatalf("loss model ineffective: delivered %d >= sent %d", st.PacketsDelivered, st.PacketsSent)
	}
	if st.FlowsCompleted >= st.FlowsStarted {
		t.Fatalf("every flow completed despite loss: %d/%d", st.FlowsCompleted, st.FlowsStarted)
	}
	if e.IncompleteFlows() == 0 {
		t.Fatal("no incomplete flows recorded despite loss")
	}
}
