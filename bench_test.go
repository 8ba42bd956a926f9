// Package main holds the benchmark harness that regenerates every table
// and figure of the paper's evaluation (one benchmark per table/figure;
// see DESIGN.md's per-experiment index), plus the ablation benchmarks
// for the design decisions the paper discusses: the dispatcher vs
// dispatcherless end-host stack (Section 4.8), LightningFilter vs a
// legacy address filter (Section 4.7.1), and Hercules single-path vs
// multipath striping.
//
// Run with:
//
//	go test -bench=. -benchmem
package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/beacon"
	"sciera/internal/combinator"
	"sciera/internal/core"
	"sciera/internal/dispatcher"
	"sciera/internal/experiments"
	"sciera/internal/multiping"
	"sciera/internal/pan"
	"sciera/internal/scenario"
	_ "sciera/internal/sciera" // registers the builtin "sciera" scenario
	"sciera/internal/simnet"
	"sciera/internal/slayers"
	"sciera/internal/topology"
)

// quickCfg keeps the per-iteration work bounded; the experiments binary
// runs the full scale.
var quickCfg = experiments.Config{Seed: 42, Quick: true}

// benchScn is the builtin reference scenario the figure benchmarks
// and the network benchmarks build from (registered by the sciera
// import above).
var benchScn = scenario.MustBuiltin("sciera")

func BenchmarkTable1_PoPs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard, benchScn)
	}
}

func BenchmarkFig1_Topology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure1(io.Discard, benchScn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_DeploymentEffort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure3(io.Discard, benchScn)
	}
}

func BenchmarkFig4_Bootstrap(b *testing.B) {
	// One full bootstrap (hint + config retrieval) per mechanism per
	// OS profile, one run each.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4Runs(int64(i), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// campaignForBench runs a small shared campaign once.
func campaignForBench(b *testing.B) (*multiping.Dataset, *core.Network) {
	b.Helper()
	ds, n, err := experiments.RunCampaign(quickCfg)
	if err != nil {
		b.Fatal(err)
	}
	return ds, n
}

func BenchmarkFig5_RTTCDF(b *testing.B) {
	ds, n := campaignForBench(b)
	defer n.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure5(io.Discard, ds)
	}
}

func BenchmarkFig6_RTTRatio(b *testing.B) {
	ds, n := campaignForBench(b)
	defer n.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure6(io.Discard, benchScn, ds)
	}
}

func BenchmarkFig7_RatioOverTime(b *testing.B) {
	ds, n := campaignForBench(b)
	defer n.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure7(io.Discard, benchScn, ds)
	}
}

func BenchmarkFig8_ActivePaths(b *testing.B) {
	ds, n := campaignForBench(b)
	defer n.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure8(io.Discard, benchScn, ds)
	}
}

func BenchmarkFig9_PathDeviation(b *testing.B) {
	ds, n := campaignForBench(b)
	defer n.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure9(io.Discard, benchScn, ds, 12*time.Hour, 10*time.Minute)
	}
}

func BenchmarkFig10a_LatencyInflation(b *testing.B) {
	ds, n := campaignForBench(b)
	defer n.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure10a(io.Discard, ds)
	}
}

func BenchmarkFig10b_Disjointness(b *testing.B) {
	n, _, err := experiments.BuildNetwork(42)
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure10b(io.Discard, benchScn, n)
	}
}

func BenchmarkFig10c_LinkFailures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure10c(io.Discard, quickCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_HintMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(io.Discard)
	}
}

func BenchmarkEnablementTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.EnablementTable(io.Discard)
	}
}

func BenchmarkSurveyTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.SurveyTable(io.Discard)
	}
}

// --- Ablations ---

// benchNet builds a two-AS data plane on the simulator (telemetry on, as
// in every production configuration).
func benchNet(b *testing.B, useDispatcher bool) (*core.Network, *simnet.Sim, addr.IA, addr.IA) {
	return benchNetOpts(b, useDispatcher, false)
}

// benchNetOpts is benchNet with the telemetry ablation switch exposed
// (the instrumented-vs-uninstrumented overhead comparison).
func benchNetOpts(b *testing.B, useDispatcher, noTelemetry bool) (*core.Network, *simnet.Sim, addr.IA, addr.IA) {
	b.Helper()
	opts := core.Options{
		Seed: 1, UseDispatcher: useDispatcher, IntraASDelay: time.Nanosecond,
		NoTelemetry: noTelemetry,
	}
	topo := topology.New()
	a := addr.MustParseIA("71-1")
	z := addr.MustParseIA("71-2")
	if err := topo.AddAS(topology.ASInfo{IA: a, Core: true}); err != nil {
		b.Fatal(err)
	}
	if err := topo.AddAS(topology.ASInfo{IA: z, Core: true}); err != nil {
		b.Fatal(err)
	}
	if _, err := topo.AddLink(topology.LinkEnd{IA: a}, topology.LinkEnd{IA: z}, topology.LinkCore, 0.01, ""); err != nil {
		b.Fatal(err)
	}
	sim := simnet.NewSim(time.Unix(0, 0))
	n, err := core.Build(topo, sim, opts)
	if err != nil {
		b.Fatal(err)
	}
	return n, sim, a, z
}

// benchDeliver measures end-to-end packet delivery through the full
// serialized data plane, with and without the legacy dispatcher in the
// receive path (the Section 4.8 ablation).
func benchDeliver(b *testing.B, useDispatcher bool) {
	benchDeliverOpts(b, useDispatcher, false)
}

func benchDeliverOpts(b *testing.B, useDispatcher, noTelemetry bool) {
	n, sim, a, z := benchNetOpts(b, useDispatcher, noTelemetry)
	defer n.Close()

	var disp *dispatcher.Dispatcher
	recvAddr := netip.AddrPortFrom(sim.AllocAddr(), 40000)
	got := 0
	if useDispatcher {
		var err error
		disp, err = dispatcher.Start(sim, sim.AllocAddr())
		if err != nil {
			b.Fatal(err)
		}
		defer disp.Close()
		if reg := n.Telemetry(); reg != nil {
			disp.RegisterTelemetry(reg)
			disp.Trace = n.TraceRing()
		}
		appConn, err := sim.Listen(netip.AddrPort{}, func([]byte, netip.AddrPort) { got++ })
		if err != nil {
			b.Fatal(err)
		}
		if err := disp.Register(40000, appConn.LocalAddr()); err != nil {
			b.Fatal(err)
		}
		disp.PerPacketWork = 1
		recvAddr = netip.AddrPortFrom(disp.Addr().Addr(), 40000)
	} else {
		if _, err := sim.Listen(recvAddr, func([]byte, netip.AddrPort) { got++ }); err != nil {
			b.Fatal(err)
		}
	}

	src, err := sim.Listen(netip.AddrPort{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rtrA, _ := n.Router(a)
	paths := n.Paths(a, z)
	if len(paths) == 0 {
		b.Fatal("no path")
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
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send(raw, rtrA.LocalAddr()); err != nil {
			b.Fatal(err)
		}
		sim.Run()
	}
	if got != b.N {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}

func BenchmarkDispatcherDelivery(b *testing.B)     { benchDeliver(b, true) }
func BenchmarkDispatcherlessDelivery(b *testing.B) { benchDeliver(b, false) }

// BenchmarkDispatcherDeliveryUninstrumented is the telemetry-overhead
// ablation twin of BenchmarkDispatcherDelivery (Options.NoTelemetry).
func BenchmarkDispatcherDeliveryUninstrumented(b *testing.B) { benchDeliverOpts(b, true, true) }

// BenchmarkRouterForwarding measures the pure router hot path: decode,
// MAC verify, path advance, re-serialize, forward — with telemetry
// registered and the trace ring sampling, as deployed.
func BenchmarkRouterForwarding(b *testing.B) { benchForward(b, false) }

// BenchmarkRouterForwardingUninstrumented is the telemetry-overhead
// ablation twin (no shared registry, no trace ring, no queue probing).
func BenchmarkRouterForwardingUninstrumented(b *testing.B) { benchForward(b, true) }

func benchForward(b *testing.B, noTelemetry bool) {
	n, sim, a, z := benchNetOpts(b, false, noTelemetry)
	defer n.Close()
	sink := 0
	recv, err := sim.Listen(netip.AddrPortFrom(sim.AllocAddr(), 40000), func([]byte, netip.AddrPort) { sink++ })
	if err != nil {
		b.Fatal(err)
	}
	src, _ := sim.Listen(netip.AddrPort{}, nil)
	rtrA, _ := n.Router(a)
	paths := n.Paths(a, z)
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
	raw, _ := pkt.Serialize(nil)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = src.Send(raw, rtrA.LocalAddr())
		sim.Run()
	}
}

// BenchmarkRouterForwardingBatch measures the burst path end to end:
// same-flow packets submitted with SendBatch coalesce into one delivery
// at each router, which shares one decode/MAC/path verdict across the
// burst and emits one egress batch. batch=1 degenerates to the
// per-packet path and is the baseline the batch sizes are judged
// against (the pps metric).
func BenchmarkRouterForwardingBatch(b *testing.B) {
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) { benchForwardBatch(b, batch) })
	}
}

func benchForwardBatch(b *testing.B, batch int) {
	n, sim, a, z := benchNet(b, false)
	defer n.Close()
	sink := 0
	recv, err := sim.Listen(netip.AddrPortFrom(sim.AllocAddr(), 40000), func([]byte, netip.AddrPort) { sink++ })
	if err != nil {
		b.Fatal(err)
	}
	src, _ := sim.Listen(netip.AddrPort{}, nil)
	rtrA, _ := n.Router(a)
	paths := n.Paths(a, z)
	if len(paths) == 0 {
		b.Fatal("no path")
	}
	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: z, SrcIA: a,
			DstHost: recv.LocalAddr().Addr(),
			SrcHost: src.LocalAddr().Addr(),
			Path:    *paths[0].Raw.Copy(),
		},
		UDP: &slayers.UDP{SrcPort: src.LocalAddr().Port(), DstPort: 40000},
		// Minimum-size packets, the convention for router pps figures:
		// per-packet machinery dominates, which is exactly what the
		// batch path amortizes (payload-proportional costs — checksum,
		// copies — are identical on both paths).
		Payload: make([]byte, 8),
	}
	raw, err := pkt.Serialize(nil)
	if err != nil {
		b.Fatal(err)
	}
	// The whole burst is the same wire image: SendBatch copies each
	// element on scheduling, so the shared backing slice is safe.
	pkts := make([][]byte, batch)
	dests := make([]netip.AddrPort, batch)
	for i := range pkts {
		pkts[i] = raw
		dests[i] = rtrA.LocalAddr()
	}
	b.SetBytes(int64(batch * len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.SendBatch(pkts, dests); err != nil {
			b.Fatal(err)
		}
		sim.Run()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "pps")
	if sink != b.N*batch {
		b.Fatalf("delivered %d of %d", sink, b.N*batch)
	}
}

// BenchmarkRouterForwardingMultiHop measures forwarding across a 3-AS
// chain (two inter-AS hops), so the packet crosses one transit router
// that performs both an ingress and an egress hop-field check. Like the
// single-hop variant, the steady state must not allocate.
func BenchmarkRouterForwardingMultiHop(b *testing.B) {
	topo := topology.New()
	ias := []addr.IA{
		addr.MustParseIA("71-1"),
		addr.MustParseIA("71-2"),
		addr.MustParseIA("71-3"),
	}
	for _, ia := range ias {
		if err := topo.AddAS(topology.ASInfo{IA: ia, Core: true}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i+1 < len(ias); i++ {
		if _, err := topo.AddLink(topology.LinkEnd{IA: ias[i]}, topology.LinkEnd{IA: ias[i+1]}, topology.LinkCore, 0.01, ""); err != nil {
			b.Fatal(err)
		}
	}
	sim := simnet.NewSim(time.Unix(0, 0))
	n, err := core.Build(topo, sim, core.Options{Seed: 1, IntraASDelay: time.Nanosecond})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()

	src2, dst2 := ias[0], ias[2]
	sink := 0
	recv, err := sim.Listen(netip.AddrPortFrom(sim.AllocAddr(), 40000), func([]byte, netip.AddrPort) { sink++ })
	if err != nil {
		b.Fatal(err)
	}
	src, _ := sim.Listen(netip.AddrPort{}, nil)
	rtr, _ := n.Router(src2)
	var path *combinator.Path
	for _, p := range n.Paths(src2, dst2) {
		if len(p.Raw.Hops) >= 3 { // src egress, transit in+out, dst ingress
			path = p
			break
		}
	}
	if path == nil {
		b.Fatal("no multi-hop path")
	}
	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: dst2, SrcIA: src2,
			DstHost: recv.LocalAddr().Addr(),
			SrcHost: src.LocalAddr().Addr(),
			Path:    *path.Raw.Copy(),
		},
		UDP:     &slayers.UDP{SrcPort: src.LocalAddr().Port(), DstPort: 40000},
		Payload: make([]byte, 1000),
	}
	raw, err := pkt.Serialize(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = src.Send(raw, rtr.LocalAddr())
		sim.Run()
	}
	b.StopTimer()
	if sink != b.N {
		b.Fatalf("delivered %d of %d", sink, b.N)
	}
}

// BenchmarkPathLookup measures a daemon-style lookup+combination on the
// full SCIERA control plane.
func BenchmarkPathLookup(b *testing.B) {
	n, _, err := experiments.BuildNetwork(42)
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	src := addr.MustParseIA("71-225")    // UVa
	dst := addr.MustParseIA("71-2:0:5c") // UFMS
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if paths := n.Paths(src, dst); len(paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

// BenchmarkBeaconing is BenchmarkRefresh on the SCIERA deployment: one
// refresh after one core circuit flapped, what each link event of the
// incident calendar costs a campaign, unsigned and signed.
func BenchmarkBeaconing(b *testing.B) {
	for _, arm := range refreshArms[:2] {
		b.Run(arm.name, func(b *testing.B) { benchFlaps(b, "sciera", arm) })
	}
}

// benchNetwork builds a scenario's network with the control plane
// converged once, signed and verified when withPKI.
func benchNetwork(tb testing.TB, spec string, withPKI bool) *core.Network {
	tb.Helper()
	s, err := scenario.Resolve(spec)
	if err != nil {
		tb.Fatal(err)
	}
	topo, err := s.Build()
	if err != nil {
		tb.Fatal(err)
	}
	n, err := core.Build(topo, simnet.NewSim(s.Campaign.Start()),
		core.Options{Seed: 42, BestPerOrigin: s.Campaign.BestPerOrigin, WithPKI: withPKI})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { n.Close() })
	return n
}

// churnSpec is the benchmark's control-churn topology: 200 ASes, 3 ISDs,
// 8 cores each.
const churnSpec = "gen:isds=3,ases=200,cores=8,seed=1"

// coldRun converges n's topology from nothing (beacon.Runner.Run: a
// refresh with nothing kept), signed and verified if n is, leaving n's
// own registry alone.
func coldRun(n *core.Network) error {
	r := &beacon.Runner{Topo: n.Topo, Keys: n.Key,
		Timestamp: uint32(n.Opts.Now.Unix()), BestPerOrigin: n.Opts.BestPerOrigin}
	if n.Opts.WithPKI {
		r.Signers, r.TRCs, r.Chains, r.VerifyAt = n.Signer, n.TRCs(), n.ChainCache(), n.Opts.Now
	}
	_, err := r.Run()
	return err
}

// refreshArm is one arm of BenchmarkRefresh and TestRefreshAllocs.
type refreshArm struct {
	name          string
	withPKI, cold bool
}

var refreshArms = []refreshArm{{"unsigned", false, false}, {"signed", true, false}, {"cold", false, true}, {"signed-cold", true, true}}

// flapRefresher builds a scenario's network and returns its next link
// event with the refresh that follows: a seeded core circuit goes down,
// the next call brings it back up, the one after picks another — what
// the control-churn workload does. Re-running an unchanged topology
// would find every beacon kept and measure a map lookup. The cold arm
// flips the link on the topology alone and converges from nothing,
// which is also what the first refresh after a load from disk pays.
func flapRefresher(tb testing.TB, spec string, arm refreshArm) func() {
	n := benchNetwork(tb, spec, arm.withPKI)
	var circuits []*topology.Link
	for _, l := range n.Topo.Links() {
		if l.Type == topology.LinkCore {
			circuits = append(circuits, l)
		}
	}
	rng := rand.New(rand.NewSource(42))
	var down *topology.Link
	return func() {
		l, up := down, true
		if down = nil; l == nil {
			l, up = circuits[rng.Intn(len(circuits))], false
			down = l
		}
		var err error
		if !arm.cold {
			err = n.SetLinkUp(l.ID, up)
		} else if err = n.Topo.SetLinkUp(l.ID, up); err == nil {
			err = coldRun(n)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// benchFlaps times one refresh per iteration, each after one link event.
func benchFlaps(b *testing.B, spec string, arm refreshArm) {
	flap := flapRefresher(b, spec, arm)
	flap() // the first refresh after convergence, then steady state
	flap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flap()
	}
}

// BenchmarkRefresh measures one control-plane refresh after one core
// circuit flapped on the churn topology: what every link event of the
// control-churn workload pays, and the timing that goes with
// TestRefreshAllocs' allocation counts. unsigned and signed start from
// what the previous refresh kept; signed signs and verifies every beacon
// entry it builds (core.Options WithPKI), and signed/unsigned per flap
// is the ratio ROADMAP item 2 targets (within 3x). cold builds
// everything, as every refresh did before beacons were kept, and
// signed-cold signs and verifies all of it: a signed convergence.
func BenchmarkRefresh(b *testing.B) {
	for _, arm := range refreshArms {
		b.Run(arm.name, func(b *testing.B) { benchFlaps(b, churnSpec, arm) })
	}
}

// BenchmarkBeaconDiversity ablates the BestPerOrigin selection knob
// (DESIGN.md "the Figure 8 diversity knob"): control-plane convergence
// cost and resulting path diversity at 4/8/16/32 beacons per origin.
func BenchmarkBeaconDiversity(b *testing.B) {
	src := addr.MustParseIA("71-225")    // UVa
	dst := addr.MustParseIA("71-2:0:5c") // UFMS
	for _, k := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("best=%d", k), func(b *testing.B) {
			topo, err := benchScn.Build()
			if err != nil {
				b.Fatal(err)
			}
			sim := simnet.NewSim(time.Unix(0, 0))
			n, err := core.Build(topo, sim, core.Options{Seed: 42, BestPerOrigin: k})
			if err != nil {
				b.Fatal(err)
			}
			defer n.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := coldRun(n); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(n.Paths(src, dst))), "paths")
		})
	}
}

// BenchmarkSCIERABringup measures the full network-in-a-box build.
func BenchmarkSCIERABringup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topo, err := benchScn.Build()
		if err != nil {
			b.Fatal(err)
		}
		sim := simnet.NewSim(time.Unix(0, 0))
		n, err := core.Build(topo, sim, core.Options{Seed: int64(i), BestPerOrigin: 14})
		if err != nil {
			b.Fatal(err)
		}
		n.Close()
	}
}

// BenchmarkMultipingRound measures one measurement interval of the
// campaign across all vantage pairs.
func BenchmarkMultipingRound(b *testing.B) {
	topo, err := benchScn.Build()
	if err != nil {
		b.Fatal(err)
	}
	sim := simnet.NewSim(time.Unix(1_737_000_000, 0))
	n, err := core.Build(topo, sim, core.Options{Seed: 42, BestPerOrigin: 14})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	ipTopo, err := benchScn.BuildIPPlane()
	if err != nil {
		b.Fatal(err)
	}
	ipRTT := benchScn.IPBaseline(ipTopo).RTTms
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		camp, err := multiping.NewCampaign(n, multiping.Config{
			Vantage:  benchScn.Vantage,
			Interval: time.Minute,
			Duration: time.Minute,
			IPRTT:    ipRTT,
			Seed:     int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := camp.Run(); err != nil {
			b.Fatal(err)
		}
		camp.Close()
	}
}

// steadyCampaign returns a campaign on the SCIERA deployment, all
// vantage pairs, whose Run is exactly one measurement round, already
// run once: the full probes are done, so every further Run is one
// steady-state round (no incident, no full probe) of probes echoes.
func steadyCampaign(tb testing.TB) (camp *multiping.Campaign, probes uint64) {
	tb.Helper()
	topo, err := benchScn.Build()
	if err != nil {
		tb.Fatal(err)
	}
	sim := simnet.NewSim(time.Unix(1_737_000_000, 0))
	n, err := core.Build(topo, sim, core.Options{Seed: 42, BestPerOrigin: 14})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { n.Close() })
	ipTopo, err := benchScn.BuildIPPlane()
	if err != nil {
		tb.Fatal(err)
	}
	camp, err = multiping.NewCampaign(n, multiping.Config{
		Vantage:  benchScn.Vantage,
		Interval: time.Minute,
		Duration: time.Minute,
		IPRTT:    benchScn.IPBaseline(ipTopo).RTTms,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(camp.Close)
	ds, err := camp.Run()
	if err != nil {
		tb.Fatal(err)
	}
	if ds.Probes == 0 || len(ds.PathCounts) == 0 {
		tb.Fatalf("warm-up round: %d probes, %d full probes", ds.Probes, len(ds.PathCounts))
	}
	return camp, ds.Probes
}

// BenchmarkCampaignRound measures one steady-state campaign round per
// iteration and reports it per probe: the timing that goes with
// TestCampaignProbeAllocs' allocation count.
func BenchmarkCampaignRound(b *testing.B) {
	camp, probes := steadyCampaign(b)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := camp.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	total := float64(probes) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/probe")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/total, "allocs/probe")
}

// BenchmarkPanWriteTo measures the application-library send path
// (lookup from cache + serialize + underlay send).
func BenchmarkPanWriteTo(b *testing.B) {
	n, sim, a, z := benchNet(b, false)
	defer n.Close()
	dA, err := n.NewDaemon(a)
	if err != nil {
		b.Fatal(err)
	}
	host := pan.WithDaemon(sim, dA)
	conn, err := host.ListenUDP(0)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	dst := addr.UDPAddr{IA: z, Host: netip.AddrPortFrom(sim.AllocAddr(), 9)}
	// Warm the path cache (the lookup RPC needs the sim loop to run).
	var lerr error
	dA.PathsAsync(z, func(_ []*combinator.Path, err error) { lerr = err })
	sim.Run()
	if lerr != nil {
		b.Fatal(lerr)
	}
	payload := make([]byte, 1000)
	b.SetBytes(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.WriteTo(payload, dst); err != nil {
			b.Fatal(err)
		}
		sim.Run()
	}
}
