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

// CheckConserved holds, when the test ends, every router of n to its
// conservation identity (router.Metrics.Conserved) and sim to its own:
// every datagram e or a router handed the simulator was delivered,
// dropped or is still in flight. The load tests call it too.
func CheckConserved(t testing.TB, n *core.Network, sim *simnet.Sim, e *Engine) {
	t.Cleanup(func() {
		sent := e.packetsSent.Load()
		for _, as := range n.Topo.ASes() {
			r, _ := n.Router(as.IA)
			m := r.Metrics()
			if err := m.Conserved(); err != nil {
				t.Errorf("router %v: %v", as.IA, err)
			}
			sent += m.Forwarded.Load() + m.Delivered.Load()
		}
		delivered, dropped := sim.Stats()
		if in := uint64(sim.InFlight()); delivered+dropped+in != sent {
			t.Errorf("simulator: %d datagrams sent, %d delivered + %d dropped + %d in flight", sent, delivered, dropped, in)
		}
	})
}

// serializeFlow is what a flow's packet seq would be if it were
// serialized: the template packet with the flow header, under magic, in
// a fresh payload.
func serializeFlow(t testing.TB, f *flow, seq uint32, magic [4]byte) []byte {
	t.Helper()
	pl := make([]byte, len(f.tmpl.pkt.Payload))
	copy(pl[payloadMagicOff:], magic[:])
	binary.BigEndian.PutUint32(pl[payloadFlowOff:], f.id)
	binary.BigEndian.PutUint32(pl[payloadEndpointOff:], f.endpoint)
	binary.BigEndian.PutUint32(pl[payloadTotalOff:], f.total)
	binary.BigEndian.PutUint32(pl[payloadSeqOff:], seq)
	binary.BigEndian.PutUint64(pl[payloadArrivalOff:], uint64(f.arrival))
	pkt := f.tmpl.pkt
	pkt.Payload = pl
	raw, err := pkt.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestPatchSeqMatchesReserialize proves a burst's packets are the bytes
// serializing them would give: the template copy with the flow's words
// and seq-0 checksum stored and seq stamped incrementally equals a
// fresh Serialize of the flow's payload, for varied id, endpoint, size,
// arrival and seq (all-zero and all-ones words among them), and the
// router's checksum verification accepts it. This is what lets no flow
// serialize a packet.
func TestPatchSeqMatchesReserialize(t *testing.T) {
	n, sim := testNet(t)
	e, err := New(n, Config{
		Pairs:       []Pair{{Src: iaA, Dst: iaZ}},
		ArrivalRate: 1,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	CheckConserved(t, n, sim, e)
	defer e.Close()

	rng := rand.New(rand.NewSource(99))
	word := func(trial int) uint32 {
		switch trial % 4 {
		case 0:
			return 0
		case 1:
			return ^uint32(0)
		}
		return rng.Uint32()
	}
	for trial := 0; trial < 400; trial++ {
		f := flow{tmpl: &e.pairs[0].templates[0], id: word(trial), endpoint: word(trial), total: word(trial),
			arrival: int64(uint64(word(trial))<<32 | uint64(word(trial)))}
		f.setChecksum()
		seq := word(trial)
		if trial%8 >= 4 {
			seq = rng.Uint32()
		}
		burst := f.appendPacket(nil, seq)
		if direct := serializeFlow(t, &f, seq, payloadMagic); !bytes.Equal(burst, direct) {
			t.Fatalf("trial %d: burst packet differs from direct serialization (flow %+v, seq %d)", trial, f, seq)
		}
		var dec slayers.Packet
		if err := dec.Decode(burst); err != nil {
			t.Fatalf("trial %d: burst packet fails checksum: %v", trial, err)
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
	CheckConserved(t, n, sim, e)
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
	sim.Latency = func(from, to netip.AddrPort, size int) (time.Duration, bool) {
		d, ok := inner(from, to, size)
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
	CheckConserved(t, n, sim, e)
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

// fixedSize removes size randomness where a test needs a predictable
// flow.
type fixedSize int

func (f fixedSize) Sample(*rand.Rand) int { return int(f) }

// TestEnginePacingZeroAlloc guards a running engine's steady state: one
// flow, long enough never to finish, bursting every PacketInterval
// through both routers to the sink. A burst — its timer on the pacing
// line, the SendBatch, forwarding and the sink's accounting — allocates
// nothing. Run by make alloc-guard.
func TestEnginePacingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	n, sim := testNet(t)
	e, err := New(n, Config{
		Pairs:          []Pair{{Src: iaA, Dst: iaZ}},
		ArrivalRate:    1,
		FlowSizes:      fixedSize(1 << 30),
		PacketInterval: time.Millisecond,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	CheckConserved(t, n, sim, e)
	defer e.Close()
	e.startFlow(e.pairs[0])
	for i := 0; i < 64; i++ {
		sim.RunFor(time.Millisecond)
	}
	sent := e.packetsSent.Load()
	if allocs := testing.AllocsPerRun(256, func() { sim.RunFor(time.Millisecond) }); allocs != 0 {
		t.Errorf("pacing burst: %.2f allocs per burst, want 0", allocs)
	}
	if got := e.packetsSent.Load() - sent; got != 257*4 {
		t.Errorf("%d packets sent while measuring, want 257 bursts of 4", got)
	}
	if st := e.Stats(); st.PacketsDelivered+8 < st.PacketsSent {
		t.Errorf("%d of %d packets delivered", st.PacketsDelivered, st.PacketsSent)
	}
}

// TestEngineFlowZeroAlloc guards a flow's whole life once the engine is
// warm: flows arrive on their pair's line, start from the free list,
// burst on the pacing line and complete at the sink, a hundred per
// measured run, and allocate nothing — no timer, closure, flow, packet
// copy or sink entry per flow (five allocations per flow when each flow
// serialized its own packet and rescheduled its arrival with
// AfterFunc). Run by make alloc-guard.
func TestEngineFlowZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	n, sim := testNet(t)
	e, err := New(n, Config{
		Pairs:          []Pair{{Src: iaA, Dst: iaZ}},
		ArrivalRate:    10_000,
		FlowSizes:      fixedSize(8),
		PacketInterval: time.Millisecond,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	CheckConserved(t, n, sim, e)
	defer e.Close()
	e.Start(time.Hour)
	sim.RunFor(200 * time.Millisecond)
	before := e.Stats()
	if allocs := testing.AllocsPerRun(100, func() { sim.RunFor(10 * time.Millisecond) }); allocs != 0 {
		t.Errorf("flow arrival to completion: %.2f allocs per 10 ms of flows, want 0", allocs)
	}
	st := e.Stats()
	if started, done := st.FlowsStarted-before.FlowsStarted, st.FlowsCompleted-before.FlowsCompleted; started < 9000 || done+100 < started {
		t.Errorf("%d flows started and %d completed while measuring, want ≈ 10100 each", started, done)
	}
	if e.IncompleteFlows() > 100 {
		t.Errorf("%d flows incomplete on a lossless network", e.IncompleteFlows())
	}

	// While the population grows (flows that outlast the measurement,
	// each after its first burst, nothing on the free list), starting a
	// flow allocates nothing either: flows come from slabs.
	n, sim = testNet(t)
	e, err = New(n, Config{
		Pairs:          []Pair{{Src: iaA, Dst: iaZ}},
		ArrivalRate:    10_000,
		FlowSizes:      fixedSize(1 << 20),
		PacketInterval: time.Hour,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	CheckConserved(t, n, sim, e)
	defer e.Close()
	e.Start(time.Hour)
	sim.RunFor(300 * time.Millisecond)
	if allocs := testing.AllocsPerRun(100, func() { sim.RunFor(10 * time.Millisecond) }); allocs != 0 {
		t.Errorf("flow start, population growing: %.2f allocs per 10 ms of arrivals, want 0", allocs)
	}
	if st := e.Stats(); st.ActiveFlows < 12000 {
		t.Errorf("%d flows active after 1.3 s of arrivals at 10 k/s, want ≈ 13100", st.ActiveFlows)
	}
}

// mapSinkPacket is handleSinkPacket as it was when a sink kept the
// packets each resident flow still owes in a map from flow ID:
// FuzzSinkAccounting's oracle, with len(remaining) its IncompleteFlows.
func (e *Engine) mapSinkPacket(k *sinkState, remaining map[uint32]int32, raw []byte) {
	if e.cfg.SinkCheck != nil && !e.cfg.SinkCheck(raw) {
		e.sinkRejected.Inc()
		return
	}
	if err := k.dec.Decode(raw); err != nil || k.dec.UDP == nil {
		return
	}
	pl := k.dec.Payload
	if len(pl) < payloadHdrLen || [4]byte(pl[payloadMagicOff:payloadMagicOff+4]) != payloadMagic {
		return
	}
	e.packetsDelivered.Inc()
	e.bytesDelivered.Add(uint64(len(raw)))
	id := binary.BigEndian.Uint32(pl[payloadFlowOff:])
	rem, ok := remaining[id]
	if !ok {
		rem = int32(binary.BigEndian.Uint32(pl[payloadTotalOff:]))
	}
	rem--
	if rem > 0 {
		remaining[id] = rem
		return
	}
	delete(remaining, id)
	e.flowsCompleted.Inc()
	arrival := int64(binary.BigEndian.Uint64(pl[payloadArrivalOff:]))
	e.fct.Observe(float64(e.net.Now().UnixNano()-arrival) / 1e6)
}

// FuzzSinkAccounting holds the sink's per-ID counts to the map they
// replaced: two engines' sinks take the same byte-chosen packets, a
// millisecond apart — flows issued and delivered in order, lost,
// duplicated (after their completion too), reordered, a wrong magic, a
// truncated packet, and forged IDs never issued (some issued later),
// near 2^32 or below the IDs issued — and must agree on Stats,
// IncompleteFlows and the FCT histogram.
func FuzzSinkAccounting(f *testing.F) {
	n, sim := testNet(f)
	f.Add([]byte{0, 3, 1, 0, 1, 0, 1, 0, 3, 0, 1, 0, 3, 0})
	f.Add([]byte{0, 9, 0, 2, 2, 0, 1, 1, 4, 0, 1, 0, 1, 1, 3, 1})
	f.Add([]byte{6, 0, 6, 1, 0, 4, 1, 0, 1, 0, 7, 5, 7, 5, 5, 2, 8, 9})
	totals := [...]uint32{0, 1, 2, 3, 0x7fffffff, 0x80000000, 0xffffffff}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := Config{Pairs: []Pair{{Src: iaA, Dst: iaZ}}, ArrivalRate: 1, PayloadBytes: 40}
		got, err := New(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer got.Close()
		want, err := New(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer want.Close()
		remaining := map[uint32]int32{}
		deliver := func(raw []byte) {
			got.handleSinkPacket(got.sinks[iaZ], raw)
			want.mapSinkPacket(want.sinks[iaZ], remaining, raw)
			sim.RunFor(time.Millisecond) // each completion time its own
		}
		now := sim.Now().UnixNano()
		var flows []*flow
		var last []byte
		for ; len(data) >= 2; data = data[2:] {
			op, arg := data[0]%10, data[1]
			var fl *flow
			if len(flows) > 0 {
				fl = flows[int(arg)%len(flows)]
			}
			forged := &flow{tmpl: &got.pairs[0].templates[0], endpoint: uint32(arg), total: totals[int(arg)%len(totals)],
				arrival: now - int64(arg)*int64(time.Millisecond)}
			switch {
			case op == 0: // a flow of 1–6 packets is issued
				fl = &flow{tmpl: forged.tmpl, id: got.nextFlow, endpoint: uint32(arg), total: 1 + uint32(arg)%6, arrival: forged.arrival}
				flows = append(flows, fl)
				got.nextFlow++
				want.nextFlow++
				continue
			case fl == nil && op <= 4:
				continue
			case op == 1: // its next packet
				last = serializeFlow(t, fl, fl.sent, payloadMagic)
				fl.sent++
			case op == 2: // its next packet is lost
				fl.sent++
				continue
			case op == 3: // the last packet again
				if last == nil {
					continue
				}
			case op == 4: // its next two packets, swapped
				deliver(serializeFlow(t, fl, fl.sent+1, payloadMagic))
				last = serializeFlow(t, fl, fl.sent, payloadMagic)
				fl.sent += 2
			case op == 5: // a packet under another magic
				last = serializeFlow(t, forged, 0, [4]byte{'T', 'R', 'F', '2'})
			case op == 6: // an ID not issued yet
				forged.id = got.nextFlow + uint32(arg)%4
				last = serializeFlow(t, forged, 0, payloadMagic)
			case op == 7: // an ID near 2^32
				forged.id = ^uint32(arg)
				last = serializeFlow(t, forged, 0, payloadMagic)
			case op == 8: // an ID issued, with a forged size
				forged.id = uint32(arg) % (got.nextFlow + 1)
				last = serializeFlow(t, forged, 0, payloadMagic)
			case op == 9: // a truncated packet
				if len(last) == 0 {
					continue
				}
				last = last[:int(arg)%len(last)]
			}
			deliver(last)
		}
		if g, w := got.Stats(), want.Stats(); g != w {
			t.Fatalf("stats differ:\n  counts: %+v\n  map:    %+v", g, w)
		}
		if g, w := got.IncompleteFlows(), len(remaining); g != w {
			t.Fatalf("%d incomplete flows, map has %d", g, w)
		}
		if g, w := fmt.Sprintf("%+v", got.FCT()), fmt.Sprintf("%+v", want.FCT()); g != w {
			t.Fatalf("FCT histograms differ:\n  counts: %s\n  map:    %s", g, w)
		}
	})
}
