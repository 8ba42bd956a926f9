package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/core"
	"sciera/internal/experiments"
	"sciera/internal/scenario"
	"sciera/internal/simnet"
	"sciera/internal/slayers"
	"sciera/internal/telemetry"
	"sciera/internal/topology"
	"sciera/internal/traffic"
)

// The four workloads are host-time batch jobs: each does a fixed
// amount of simulated work per repetition and reports work completed
// per host second. Probe rounds and flow arrivals fire on a virtual
// clock, so every simulated result is a function of the seed alone and
// serves as the output check. One process, one driving goroutine,
// default GOMAXPROCS. The sizes below are frozen: they put one
// repetition at 2-3 s (campaign-sciera: 6-7 s) on the 2-core host the
// baseline was recorded on, so a run of run_seconds holds five or more
// repetitions (campaign-sciera: three), and they are never scaled per
// host.
var workloads = []workload{
	{
		name:  "campaign-sciera",
		why:   "The paper's Section 5.4 campaign and figures on the SCIERA scenario: single-packet router path, SCMP, multiping, per-record IP baseline, incident refreshes; scheduler at a small pending population.",
		setup: setupCampaign,
	},
	{
		name:  "load-flows",
		why:   "Open-loop flows on the two-AS loadbench scenario: scheduler at ~55k pending events, burst-of-4 same-flow decode and forwarding, traffic engine; no control plane, so campaign-only changes bypass it.",
		setup: setupLoad,
	},
	{
		name:  "forward-chain",
		why:   "Bare forwarding over an 8-AS line at the smallest packet size, one at a time then in bursts of 32, and at 1200 B in bursts: per-packet and per-byte router cost, no traffic engine or control plane.",
		setup: setupChain,
	},
	{
		name:  "control-churn",
		why:   "Link flaps on a generated 200-AS topology: re-beaconing beside cold, warm and daemon path lookups, reads next to writes on the segment stores; the one workload where control-plane cost dominates.",
		setup: setupChurn,
	},
}

// Workload sizes at scale 1.
const (
	// campaign-sciera: all 11 vantage ASes (110 pairs), the full 20
	// days and incident calendar, one measurement round every
	// campaignIntervalMin minutes instead of every 5. The calendar's
	// refreshes and the replica build cost ~1.3 s whatever the
	// interval; at 40 minutes they are a fifth of the repetition, at
	// 120 they would be half and the probe path would be
	// under-weighted against the real campaign (3 %).
	campaignIntervalMin = 40

	// load-flows: the loadbench builtin with arrivals over loadHorizonMS
	// instead of 1500 and loadFlowPackets per flow instead of 128. Flows
	// outlive the arrival horizon (8 bursts x 100 ms), so all ~54k are
	// in flight at once: the pending population stays large while the
	// packet count fits a repetition.
	loadHorizonMS   = 600
	loadFlowPackets = 32

	// forward-chain: three phases over one 8-hop path.
	chainASes       = 8
	chainMinPayload = 8
	chainMTUPayload = 1200
	chainBurst      = 32
	chainSingles    = 180_000 // min-b1: packets sent one at a time
	chainMinBursts  = 30_000  // min-b32: bursts of 32 x 8 B
	chainMTUBursts  = 7_000   // mtu-b32: bursts of 32 x 1200 B
	chainWarmup     = 64

	// control-churn: cycles of link down + link up on churnScenario.
	churnScenario   = "gen:isds=3,ases=200,cores=8,seed=1"
	churnSmallScen  = "gen:isds=3,ases=30,cores=4,seed=1" // smoke test only
	churnCycles     = 4
	churnWarmPasses = 20
)

func div(n, scale int) int {
	if n/scale < 1 {
		return 1
	}
	return n / scale
}

// harvest fills the count metrics every workload shares from the
// counters the packages export.
func harvest(r *repResult, n *core.Network, sim *simnet.Sim) {
	snap := n.TelemetrySnapshot()
	ops := float64(r.Ops)
	c := r.Counts
	events := float64(sim.ProcessedEvents())
	c["simnet.events_per_op"] = events / ops
	c["simnet.events_per_s"] = events / r.WallS
	c["simnet.peak_pending"] = float64(sim.PeakPending())
	_, dropped := sim.Stats()
	c["simnet.dropped"] = float64(dropped)
	c["router.received_per_op"] = snap.Total("sciera_router_received_total") / ops
	c["router.forwarded_per_op"] = snap.Total("sciera_router_forwarded_total") / ops
	c["router.delivered_per_op"] = snap.Total("sciera_router_delivered_total") / ops
	c["router.drops"] = routerDrops(snap)
	c["router.scmp_sent"] = snap.Total("sciera_router_scmp_sent_total")
	c["dispatcher.demux_miss_share"] = share(
		snap.Total("sciera_dispatcher_demux_misses_total"),
		snap.Total("sciera_dispatcher_demux_hits_total")+snap.Total("sciera_dispatcher_demux_misses_total"))
	c["multiping.lost_share"] = share(
		snap.Total("sciera_multiping_lost_total"), snap.Total("sciera_multiping_probes_total"))
	c["beacon.pruned"] = snap.Total("sciera_beacon_pruned_total")
	reg := n.Registry()
	c["pathdb.core_segments"] = float64(reg.Core.Len())
	c["pathdb.down_segments"] = float64(reg.Down.Len())
}

func routerDrops(snap telemetry.Snapshot) float64 {
	return snap.Total("sciera_router_mac_failures_total") +
		snap.Total("sciera_router_ingress_drops_total") +
		snap.Total("sciera_router_noroute_drops_total") +
		snap.Total("sciera_router_linkdown_drops_total") +
		snap.Total("sciera_router_parse_failures_total")
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// --- campaign-sciera ---

func setupCampaign(seed int64, scale int, tr *tracer) (*instance, error) {
	s, err := scenario.Resolve("sciera")
	if err != nil {
		return nil, err
	}
	s.Campaign.IntervalMinutes = campaignIntervalMin
	s.Campaign.Days = div(s.Campaign.Days, scale)
	cfg := experiments.Config{Seed: seed, Scenario: s, Workers: 1}

	// setup_s: one standalone converge + clone, the warm-start cost a
	// sharded campaign pays per replica. The timed campaign below
	// builds its own replica, as a user's run does.
	id := tr.begin("experiments.ConvergeReference", 1)
	snap, err := experiments.ConvergeReference(cfg, cfg.ProbePairs())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("experiments.CloneReplica", 1)
	replica, _, err := experiments.CloneReplica(cfg, snap)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	replica.Close()

	var (
		figures bytes.Buffer
		net     *core.Network
		probes  uint64
		records int
		full    int
	)
	inst := &instance{close: func() {
		if net != nil {
			net.Close()
		}
	}}
	inst.timed = func() (uint64, error) {
		id := tr.begin("experiments.RunCampaign", 1)
		ds, n, err := experiments.RunCampaign(cfg)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		net = n
		id = tr.begin("experiments.Figures", 1)
		experiments.Figure5(&figures, ds)
		experiments.Figure6(&figures, s, ds)
		experiments.Figure7(&figures, s, ds)
		experiments.Figure8(&figures, s, ds)
		experiments.Figure9(&figures, s, ds, s.Campaign.Duration(), s.Campaign.Interval())
		experiments.Figure10a(&figures, ds)
		tr.end(id)
		probes, records, full = ds.Probes, len(ds.Records), len(ds.PathCounts)
		return probes, nil
	}
	inst.finish = func(r *repResult) error {
		if records == 0 || figures.Len() == 0 {
			return fmt.Errorf("campaign produced %d records, %d figure bytes", records, figures.Len())
		}
		sum := sha256.Sum256(figures.Bytes())
		r.Digest = hex.EncodeToString(sum[:])
		r.Attempted = probes
		harvest(r, net, net.Transport.(*simnet.Sim))
		r.Counts["multiping.probes"] = float64(probes)
		r.Counts["multiping.records"] = float64(records)
		r.Counts["multiping.full_probes"] = float64(full)
		return nil
	}
	return inst, nil
}

// --- load-flows ---

// fixedSize pins the flow length so the concurrency high-water mark is
// a workload parameter, not a draw.
type fixedSize int

func (f fixedSize) Sample(*rand.Rand) int { return int(f) }

func setupLoad(seed int64, scale int, tr *tracer) (*instance, error) {
	s, err := scenario.Resolve("loadbench")
	if err != nil {
		return nil, err
	}
	t := s.Traffic
	topo, err := s.Build()
	if err != nil {
		return nil, err
	}
	sim := simnet.NewSim(s.Campaign.Start())
	id := tr.begin("core.Build", 1)
	n, err := core.Build(topo, sim, core.Options{
		Seed:         1,
		IntraASDelay: time.Duration(t.IntraASDelayUS * float64(time.Microsecond)),
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	pairs := make([]traffic.Pair, len(t.Pairs))
	for i, p := range t.Pairs {
		pairs[i] = traffic.Pair{Src: p.Src, Dst: p.Dst}
	}
	id = tr.begin("traffic.New", 1)
	e, err := traffic.New(n, traffic.Config{
		Pairs:          pairs,
		Endpoints:      t.EndpointsPerSource,
		ArrivalRate:    t.ArrivalRatePerPair,
		FlowSizes:      fixedSize(loadFlowPackets),
		PayloadBytes:   t.PayloadBytes,
		PacketInterval: time.Duration(t.PacketIntervalMS * float64(time.Millisecond)),
		Burst:          t.Burst,
		Seed:           seed,
	})
	tr.end(id)
	if err != nil {
		n.Close()
		return nil, err
	}
	horizon := time.Duration(float64(loadHorizonMS) / float64(scale) * float64(time.Millisecond))

	inst := &instance{close: func() { e.Close(); n.Close() }}
	inst.timed = func() (uint64, error) {
		id := tr.begin("simnet.Run", 1)
		e.Start(horizon)
		sim.Run()
		tr.end(id)
		return e.Stats().PacketsDelivered, nil
	}
	inst.finish = func(r *repResult) error {
		st := e.Stats()
		sum := sha256.Sum256([]byte(fmt.Sprintf("%+v|%+v", st, e.FCT())))
		r.Digest = hex.EncodeToString(sum[:])
		r.Attempted = st.PacketsSent
		r.Failed = st.PacketsSent - st.PacketsDelivered
		if st.FlowsCompleted != st.FlowsStarted {
			return fmt.Errorf("%d of %d flows completed", st.FlowsCompleted, st.FlowsStarted)
		}
		harvest(r, n, sim)
		r.Counts["traffic.flows_completed"] = float64(st.FlowsCompleted)
		r.Counts["traffic.peak_active_flows"] = float64(st.PeakActiveFlows)
		r.Counts["traffic.backpressure"] = float64(st.SCMPBackpressure)
		return nil
	}
	return inst, nil
}

// --- forward-chain ---

func setupChain(seed int64, scale int, tr *tracer) (*instance, error) {
	topo := topology.New()
	ias := make([]addr.IA, chainASes)
	for i := range ias {
		ias[i] = addr.MustParseIA(fmt.Sprintf("71-%d", i+1))
		if err := topo.AddAS(topology.ASInfo{IA: ias[i], Core: true}); err != nil {
			return nil, err
		}
	}
	for i := 0; i+1 < len(ias); i++ {
		if _, err := topo.AddLink(topology.LinkEnd{IA: ias[i]}, topology.LinkEnd{IA: ias[i+1]}, topology.LinkCore, 0.01, ""); err != nil {
			return nil, err
		}
	}
	sim := simnet.NewSim(time.Unix(0, 0))
	id := tr.begin("core.Build", 1)
	n, err := core.Build(topo, sim, core.Options{Seed: 1, IntraASDelay: time.Nanosecond})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*instance, error) { n.Close(); return nil, err }

	first, last := ias[0], ias[len(ias)-1]
	var delivered, deliveredBytes uint64
	recv, err := sim.Listen(netip.AddrPortFrom(sim.AllocAddr(), 40000), func(b []byte, _ netip.AddrPort) {
		delivered++
		deliveredBytes += uint64(len(b))
	})
	if err != nil {
		return fail(err)
	}
	src, err := sim.Listen(netip.AddrPort{}, nil)
	if err != nil {
		return fail(err)
	}
	rtr, ok := n.Router(first)
	if !ok {
		return fail(fmt.Errorf("no router for %v", first))
	}
	var path *combinator.Path
	for _, p := range n.Paths(first, last) {
		if p.NumHops() == chainASes-1 {
			path = p
			break
		}
	}
	if path == nil {
		return fail(fmt.Errorf("no %d-hop path from %v to %v", chainASes-1, first, last))
	}

	// The payload bytes are the seeded input; they reach the checksum
	// and nothing else.
	rng := rand.New(rand.NewSource(seed))
	packet := func(payload int) (*slayers.Packet, []byte, error) {
		pkt := &slayers.Packet{
			Hdr: slayers.SCION{
				DstIA: last, SrcIA: first,
				DstHost: recv.LocalAddr().Addr(),
				SrcHost: src.LocalAddr().Addr(),
				Path:    *path.Raw.Copy(),
			},
			UDP:     &slayers.UDP{SrcPort: src.LocalAddr().Port(), DstPort: 40000},
			Payload: make([]byte, payload),
		}
		rng.Read(pkt.Payload)
		raw, err := pkt.Serialize(nil)
		return pkt, raw, err
	}
	minPkt, minRaw, err := packet(chainMinPayload)
	if err != nil {
		return fail(err)
	}
	_, mtuRaw, err := packet(chainMTUPayload)
	if err != nil {
		return fail(err)
	}

	// send pushes rounds bursts of the given size and drains the
	// simulator after each, so one burst is in flight at a time.
	send := func(raw []byte, burst, rounds int) error {
		pkts := make([][]byte, burst)
		dests := make([]netip.AddrPort, burst)
		for i := range pkts {
			pkts[i], dests[i] = raw, rtr.LocalAddr()
		}
		for i := 0; i < rounds; i++ {
			if err := src.SendBatch(pkts, dests); err != nil {
				return err
			}
			sim.Run()
		}
		return nil
	}
	if err := send(minRaw, chainBurst, chainWarmup); err != nil {
		return fail(err)
	}
	warm := delivered
	if warm != chainWarmup*chainBurst {
		return fail(fmt.Errorf("warm-up delivered %d of %d packets", warm, chainWarmup*chainBurst))
	}

	phases := []struct {
		span   string
		raw    []byte
		burst  int
		rounds int
	}{
		{"router.min_b1", minRaw, 1, div(chainSingles, scale)},
		{"router.min_b32", minRaw, chainBurst, div(chainMinBursts, scale)},
		{"router.mtu_b32", mtuRaw, chainBurst, div(chainMTUBursts, scale)},
	}
	var sent uint64
	inst := &instance{close: func() { n.Close() }}
	inst.timed = func() (uint64, error) {
		for _, p := range phases {
			id := tr.begin(p.span, p.burst*p.rounds*chainASes)
			err := send(p.raw, p.burst, p.rounds)
			tr.end(id)
			if err != nil {
				return 0, err
			}
			sent += uint64(p.burst * p.rounds)
		}
		return delivered - warm, nil
	}
	inst.finish = func(r *repResult) error {
		r.Attempted = sent
		r.Failed = sent - (delivered - warm)
		harvest(r, n, sim)
		snap := n.TelemetrySnapshot()
		sum := sha256.Sum256([]byte(fmt.Sprintf("delivered=%d bytes=%d received=%v forwarded=%v router_delivered=%v drops=%v",
			delivered, deliveredBytes,
			snap.Total("sciera_router_received_total"), snap.Total("sciera_router_forwarded_total"),
			snap.Total("sciera_router_delivered_total"), routerDrops(snap))))
		r.Digest = hex.EncodeToString(sum[:])

		if tr == nil {
			return nil
		}
		// Serialize and decode cost on the workload's own packet,
		// outside the timed part.
		const codecRounds = 20_000
		buf := make([]byte, 0, len(minRaw))
		id := tr.begin("slayers.Serialize", codecRounds)
		for i := 0; i < codecRounds; i++ {
			if _, err := minPkt.Serialize(buf); err != nil {
				return err
			}
		}
		tr.end(id)
		var dec slayers.Packet
		id = tr.begin("slayers.Decode", codecRounds)
		for i := 0; i < codecRounds; i++ {
			if err := dec.Decode(minRaw); err != nil {
				return err
			}
		}
		tr.end(id)
		return nil
	}
	return inst, nil
}

// --- control-churn ---

func setupChurn(seed int64, scale int, tr *tracer) (*instance, error) {
	spec, cycles, warmPasses := churnScenario, churnCycles, churnWarmPasses
	if scale > 1 {
		spec, cycles, warmPasses = churnSmallScen, 1, 1
	}
	s, err := scenario.Resolve(spec)
	if err != nil {
		return nil, err
	}
	cfg := experiments.Config{Seed: seed, Scenario: s}

	// Set-up is the whole warm-start chain: converge, snapshot to disk,
	// load it back, clone the replica the timed part churns.
	id := tr.begin("experiments.ConvergeReference", 1)
	snap, err := experiments.ConvergeReference(cfg, cfg.ProbePairs())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil { // in-process callers (the smoke test) have not made it
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "churn-snapshot-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	file := filepath.Join(dir, "snapshot.json")
	id = tr.begin("core.Snapshot.WriteFile", 1)
	err = snap.WriteFile(file)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("core.LoadSnapshotFile", 1)
	loaded, err := core.LoadSnapshotFile(file)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("experiments.CloneReplica", 1)
	n, _, err := experiments.CloneReplica(cfg, loaded)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	sim := n.Transport.(*simnet.Sim)
	d, err := n.NewDaemon(s.Vantage[0])
	if err != nil {
		n.Close()
		return nil, err
	}

	var pairs [][2]addr.IA
	for _, a := range s.Vantage {
		for _, b := range s.Vantage {
			if a != b {
				pairs = append(pairs, [2]addr.IA{a, b})
			}
		}
	}
	// The daemon looks up one destination in each other ISD.
	daemonDsts := []addr.IA{s.Vantage[len(s.Vantage)/2], s.Vantage[len(s.Vantage)-1]}

	// Only core circuits flap: the core mesh is redundant, so every
	// pair keeps a path and no lookup fails. Single-homed leaves would
	// be partitioned by their one parent circuit.
	var flappable []*topology.Link
	for _, l := range n.Topo.Links() {
		if l.Type == topology.LinkCore && l.Up() {
			flappable = append(flappable, l)
		}
	}
	if len(flappable) == 0 {
		n.Close()
		return nil, fmt.Errorf("%s has no core circuit to flap", spec)
	}
	rng := rand.New(rand.NewSource(seed))

	var (
		digest            = sha256.New()
		lookups, empty    uint64
		pathsFound        uint64
		refreshes         int
		propagated0, reg0 float64
	)
	record := func(cycle, i int, paths []*combinator.Path) {
		lookups++
		pathsFound += uint64(len(paths))
		fp := ""
		if len(paths) == 0 {
			empty++
		} else {
			fp = paths[0].Fingerprint
		}
		fmt.Fprintf(digest, "%d %d %d %s\n", cycle, i, len(paths), fp)
	}

	inst := &instance{close: func() { d.Close(); n.Close() }}
	inst.timed = func() (uint64, error) {
		before := n.TelemetrySnapshot()
		propagated0 = before.Total("sciera_beacon_propagated_total")
		reg0 = before.Total("sciera_beacon_registered_total")
		for c := 0; c < cycles; c++ {
			link := flappable[rng.Intn(len(flappable))]
			for _, up := range []bool{false, true} {
				id := tr.begin("core.SetLinkUp", 1)
				err := n.SetLinkUp(link.ID, up)
				tr.end(id)
				if err != nil {
					return 0, err
				}
				refreshes++
				for i, p := range pairs {
					id := tr.begin("core.Paths.cold", 1)
					paths := n.Paths(p[0], p[1])
					tr.end(id)
					record(c, i, paths)
				}
				for w := 0; w < warmPasses; w++ {
					found := 0
					id := tr.begin("core.Paths.warm", len(pairs))
					for _, p := range pairs {
						found += len(n.Paths(p[0], p[1]))
					}
					tr.end(id)
					fmt.Fprintf(digest, "%d warm %d\n", c, found)
				}
				d.FlushCache()
				for i, dst := range daemonDsts {
					var paths []*combinator.Path
					var lookupErr error
					id := tr.begin("daemon.PathsAsync", 1)
					d.PathsAsync(dst, func(p []*combinator.Path, err error) { paths, lookupErr = p, err })
					sim.Run()
					tr.end(id)
					if lookupErr != nil {
						return 0, fmt.Errorf("daemon lookup %v: %w", dst, lookupErr)
					}
					record(c, len(pairs)+i, paths)
				}
			}
		}
		return uint64(cycles), nil
	}
	inst.finish = func(r *repResult) error {
		r.Digest = hex.EncodeToString(digest.Sum(nil))
		r.Attempted = lookups
		r.Failed = empty
		harvest(r, n, sim)
		after := n.TelemetrySnapshot()
		r.Counts["beacon.propagated_per_refresh"] = (after.Total("sciera_beacon_propagated_total") - propagated0) / float64(refreshes)
		r.Counts["beacon.registered_per_refresh"] = (after.Total("sciera_beacon_registered_total") - reg0) / float64(refreshes)
		r.Counts["combinator.paths_per_lookup"] = float64(pathsFound) / float64(lookups)
		dl, dh := d.Stats()
		r.Counts["daemon.cache_hit_share"] = share(float64(dh), float64(dl))
		ch, cm, _ := d.CombineStats()
		r.Counts["daemon.combine_hit_share"] = share(float64(ch), float64(ch+cm))
		return nil
	}
	return inst, nil
}
