package main

import (
	"net/netip"
	"testing"

	"sciera/internal/core"
	"sciera/internal/dispatcher"
	"sciera/internal/slayers"
	"sciera/internal/telemetry"
)

// TestRouterForwardingZeroAlloc guards the PR 1 invariant under PR 3's
// instrumentation: the forwarding fast path must not allocate in steady
// state even with the telemetry registry, per-interface counters, trace
// ring and queue-delay hook all enabled (the default configuration).
func TestRouterForwardingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	b := &testing.B{}
	n, sim, a, z := benchNetOpts(b, false, false)
	defer n.Close()
	if n.Telemetry() == nil || n.TraceRing() == nil {
		t.Fatal("telemetry not enabled on the benchmark network")
	}
	recv, err := sim.Listen(netip.AddrPortFrom(sim.AllocAddr(), 40000), func([]byte, netip.AddrPort) {})
	if err != nil {
		t.Fatal(err)
	}
	src, err := sim.Listen(netip.AddrPort{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rtrA, _ := n.Router(a)
	paths := n.Paths(a, z)
	if len(paths) == 0 {
		t.Fatal("no path")
	}
	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: z, SrcIA: a,
			DstHost: recv.LocalAddr().Addr(),
			SrcHost: src.LocalAddr().Addr(),
			Path:    *paths[0].Raw.Copy(),
		},
		UDP:     &slayers.UDP{SrcPort: src.LocalAddr().Port(), DstPort: 40000},
		Payload: make([]byte, 1000),
	}
	raw, err := pkt.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm pools (packet processors, sim event buffers) and cross the
	// first trace-sampling ticks before measuring.
	for i := 0; i < 256; i++ {
		_ = src.Send(raw, rtrA.LocalAddr())
		sim.Run()
	}
	if allocs := testing.AllocsPerRun(512, func() {
		_ = src.Send(raw, rtrA.LocalAddr())
		sim.Run()
	}); allocs != 0 {
		t.Errorf("router forwarding with telemetry enabled: %.2f allocs/op, want 0", allocs)
	}
	fwd := rtrA.Metrics().Forwarded.Load()
	if fwd == 0 {
		t.Error("telemetry counters did not advance")
	}
	if seen, _ := n.TraceRing().Stats(); seen == 0 {
		t.Error("trace ring saw no packets")
	}
	if v, ok := n.Telemetry().Snapshot().Value("sciera_router_forwarded_total", telemetry.L("ia", a.String())); !ok || v != float64(fwd) {
		t.Errorf("registry series (%g, %v) disagrees with metrics cell %d", v, ok, fwd)
	}
}

// TestDispatcherDeliveryZeroAlloc guards the dispatcher demux path the
// same way: end-to-end delivery through router + dispatcher, telemetry
// and trace sampling enabled, zero allocations in steady state.
func TestDispatcherDeliveryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	b := &testing.B{}
	n, sim, a, z := benchNetOpts(b, true, false)
	defer n.Close()
	disp, err := dispatcher.Start(sim, sim.AllocAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer disp.Close()
	disp.RegisterTelemetry(n.Telemetry())
	disp.Trace = n.TraceRing()
	disp.PerPacketWork = 1

	got := 0
	appConn, err := sim.Listen(netip.AddrPort{}, func([]byte, netip.AddrPort) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := disp.Register(40000, appConn.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	recvAddr := netip.AddrPortFrom(disp.Addr().Addr(), 40000)

	src, err := sim.Listen(netip.AddrPort{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rtrA, _ := n.Router(a)
	paths := n.Paths(a, z)
	if len(paths) == 0 {
		t.Fatal("no path")
	}
	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: z, SrcIA: a,
			DstHost: recvAddr.Addr(),
			SrcHost: src.LocalAddr().Addr(),
			Path:    *paths[0].Raw.Copy(),
		},
		UDP:     &slayers.UDP{SrcPort: src.LocalAddr().Port(), DstPort: 40000},
		Payload: make([]byte, 1000),
	}
	raw, err := pkt.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		_ = src.Send(raw, rtrA.LocalAddr())
		sim.Run()
	}
	before := got
	if allocs := testing.AllocsPerRun(512, func() {
		_ = src.Send(raw, rtrA.LocalAddr())
		sim.Run()
	}); allocs != 0 {
		t.Errorf("dispatcher delivery with telemetry enabled: %.2f allocs/op, want 0", allocs)
	}
	if got <= before {
		t.Fatalf("no packets delivered during measurement (%d -> %d)", before, got)
	}
	if disp.DemuxHits.Load() == 0 {
		t.Error("dispatcher demux-hit counter did not advance")
	}
	if v := n.Telemetry().Snapshot().Total("sciera_dispatcher_demux_hits_total"); v != float64(disp.DemuxHits.Load()) {
		t.Errorf("registry demux hits %g disagree with cell %d", v, disp.DemuxHits.Load())
	}
}

// TestRouterForwardingBatchZeroAlloc guards the batch pipeline the same
// way: a 32-packet same-flow burst injected with SendBatch, forwarded
// through two routers as merged burst events and delivered in one batch
// callback, must not allocate in steady state — the whole point of the
// batch path is amortizing per-packet machinery, not trading it for
// per-burst garbage.
func TestRouterForwardingBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	const batch = 32
	b := &testing.B{}
	n, sim, a, z := benchNetOpts(b, false, false)
	defer n.Close()
	got := 0
	recv, err := sim.Listen(netip.AddrPortFrom(sim.AllocAddr(), 40000), func([]byte, netip.AddrPort) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	src, err := sim.Listen(netip.AddrPort{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rtrA, _ := n.Router(a)
	paths := n.Paths(a, z)
	if len(paths) == 0 {
		t.Fatal("no path")
	}
	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: z, SrcIA: a,
			DstHost: recv.LocalAddr().Addr(),
			SrcHost: src.LocalAddr().Addr(),
			Path:    *paths[0].Raw.Copy(),
		},
		UDP:     &slayers.UDP{SrcPort: src.LocalAddr().Port(), DstPort: 40000},
		Payload: make([]byte, 1000),
	}
	raw, err := pkt.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([][]byte, batch)
	dests := make([]netip.AddrPort, batch)
	for i := range pkts {
		pkts[i] = raw
		dests[i] = rtrA.LocalAddr()
	}
	// Warm pools: packet processors, merged burst events and their
	// per-packet buffers, egress batch scratch.
	for i := 0; i < 64; i++ {
		_ = src.SendBatch(pkts, dests)
		sim.Run()
	}
	before := got
	if allocs := testing.AllocsPerRun(256, func() {
		_ = src.SendBatch(pkts, dests)
		sim.Run()
	}); allocs != 0 {
		t.Errorf("batch forwarding with telemetry enabled: %.2f allocs/op, want 0", allocs)
	}
	if delivered := got - before; delivered < 256*batch {
		t.Errorf("delivered %d packets during measurement, want at least %d", delivered, 256*batch)
	}
	if fwd := rtrA.Metrics().Forwarded.Load(); fwd == 0 {
		t.Error("telemetry counters did not advance")
	}
}

// TestCampaignProbeAllocs guards the campaign's probe path end to end:
// a steady-state round on the SCIERA deployment — every vantage pair,
// no incident, no full probe — covers the IP baseline, the pinger, the
// routers, the responder and the record slots. What is left to allocate
// per probe is its timeout: the timer event, its cancel function and
// the closure carrying the sequence number (3.15 per probe measured;
// the fraction is the round's own timer and record growth).
func TestCampaignProbeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	const maxPerProbe = 4
	camp, probes := steadyCampaign(t)
	perRound := testing.AllocsPerRun(20, func() {
		if _, err := camp.Run(); err != nil {
			t.Fatal(err)
		}
	})
	perProbe := perRound / float64(probes)
	t.Logf("%.2f allocs per probe (%d probes per round)", perProbe, probes)
	if perProbe > maxPerProbe {
		t.Errorf("steady-state campaign round: %.2f allocs per probe, want <= %d", perProbe, maxPerProbe)
	}
}

// TestRefreshAllocs guards what a control-plane refresh allocates on the
// benchmark's churn topology after one core circuit flapped (the arms of
// BenchmarkRefresh). The flood decides about all ~23 k candidates again
// every time; what the bounds guard is how much of what it admits it
// builds. cold — nothing kept, every admitted beacon built — made
// 66.4 k allocations when every refresh was one (44.8 k now), and the
// bound holds it within 10 % of that. unsigned and signed start from
// what the previous refresh kept and build only the beacons whose route
// is new (23.5 k and 44.5 k measured): their bounds are the measurement
// plus 10 %, and a change that loses the kept map, or stops consulting
// it, lands at cold's figure or, signed, at signed-cold's — a signed
// convergence, 790 k measured to within 20 on every run, bound likewise,
// and at ≈0.8 s a run measured over fewer of them.
func TestRefreshAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	bounds := map[string]float64{"cold": 73_000, "unsigned": 26_700, "signed": 49_000, "signed-cold": 870_000}
	for _, arm := range refreshArms {
		flap := flapRefresher(t, churnSpec, arm)
		flap()
		flap()
		runs := 10
		if arm.withPKI && arm.cold {
			runs = 2
		}
		allocs := testing.AllocsPerRun(runs, flap)
		t.Logf("%s: %.0f allocs per refresh", arm.name, allocs)
		if allocs > bounds[arm.name] {
			t.Errorf("%s refresh after a core flap: %.0f allocs, want <= %.0f", arm.name, allocs, bounds[arm.name])
		}
	}
}

// TestSignedConvergenceBuildsWhatUnsignedDoes: under the PKI a beacon is
// signed and verified where a store admits it, so a signed convergence
// builds exactly the beacons an unsigned one builds, verifies each it
// did not terminate itself (Built − Registered: originated plus admitted
// extensions) with no failure, and floods identically.
func TestSignedConvergenceBuildsWhatUnsignedDoes(t *testing.T) {
	for _, spec := range []string{"sciera", churnSpec} {
		total := func(n *core.Network, name string) float64 {
			return n.TelemetrySnapshot().Total("sciera_beacon_" + name + "_total")
		}
		unsigned, signed := benchNetwork(t, spec, false), benchNetwork(t, spec, true)
		for _, name := range []string{"originated", "propagated", "filtered", "pruned", "registered", "built"} {
			if u, s := total(unsigned, name), total(signed, name); u != s || u == 0 && name != "pruned" {
				t.Errorf("%s: %s %v unsigned, %v signed", spec, name, u, s)
			}
		}
		built, registered, verified := total(signed, "built"), total(signed, "registered"), total(signed, "verified")
		t.Logf("%s: built %v, registered %v, verified %v", spec, built, registered, verified)
		if verified != built-registered || total(signed, "verify_failed") != 0 {
			t.Errorf("%s: verified %v of %v built − %v registered, %v failed", spec,
				verified, built, registered, total(signed, "verify_failed"))
		}
	}
}
