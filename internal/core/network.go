// Package core wires every substrate into a complete SCION network in a
// box: given an AS-level topology it derives forwarding keys, runs
// beaconing to populate the path-segment registries, instantiates one
// border router per AS on the chosen transport (discrete-event simulator
// or real loopback UDP), and answers path lookups by segment
// combination.
//
// This is the entry point a downstream user starts from: build a
// topology (or load the SCIERA deployment from package sciera), call
// Build, and dial across the network with package pan.
package core

import (
	"crypto/x509"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"sciera/internal/addr"
	"sciera/internal/beacon"
	"sciera/internal/combinator"
	"sciera/internal/control"
	"sciera/internal/cppki"
	"sciera/internal/daemon"
	"sciera/internal/router"
	"sciera/internal/scmp"
	"sciera/internal/scrypto"
	"sciera/internal/simnet"
	"sciera/internal/telemetry"
	"sciera/internal/topology"
)

// Telemetry defaults: the trace ring holds the most recent sampled
// packet observations network-wide; one in traceSampleEvery packets is
// sampled (power of two, so the sampler is a mask test).
const (
	traceRingSize    = 4096
	traceSampleEvery = 64
)

// Options tunes network construction.
type Options struct {
	// Seed derives every AS's hop key, and through it each beacon's
	// initial accumulator; fixed seeds give reproducible networks.
	Seed int64
	// BestPerOrigin bounds beacon stores (beacon.DefaultBestPerOrigin
	// when zero). Larger values surface more path diversity.
	BestPerOrigin int
	// UseDispatcher configures routers to deliver through the legacy
	// shared dispatcher port (Section 4.8 ablation).
	UseDispatcher bool
	// WithPKI provisions a control-plane PKI per ISD, signs every beacon
	// entry, and verifies a beacon against the ISD TRC where a store
	// admits it (dropping unverifiable ones). A shared verified-chain
	// cache and the beacons kept across refreshes hold the cost to what
	// EXPERIMENTS.md measures, so campaigns can run with the
	// deployment-faithful signed control plane (-pki).
	WithPKI bool
	// Now stamps segments; defaults to the transport clock.
	Now time.Time
	// IntraASDelay is the simulated one-way delay between AS-internal
	// endpoints (hosts, services, routers); default 100µs. Only
	// meaningful on the discrete-event transport.
	IntraASDelay time.Duration
	// NoTelemetry builds the network without the shared metric registry,
	// packet-trace ring and queue-delay histogram. Subsystem counters
	// still run (they are plain atomics either way); what this disables
	// is exposition, trace sampling and the circuits' queue observations
	// — the uninstrumented arm of the overhead ablation.
	NoTelemetry bool
}

// Network is a fully assembled SCION network.
type Network struct {
	Topo      *topology.Topology
	Transport simnet.Network
	Opts      Options

	mu       sync.RWMutex
	registry *beacon.Registry
	routers  map[addr.IA]*router.Router
	services map[addr.IA]*control.Service
	keys     map[addr.IA]scrypto.HopKey
	signers  map[addr.IA]*cppki.Signer
	trcs     *cppki.Store
	// chains memoizes verified certificate chains across all refreshes
	// and (in sharded campaigns) across replicas of this network.
	chains *cppki.ChainCache

	// telem/trace are the network-wide metric registry and packet-trace
	// ring (nil with Options.NoTelemetry). beaconMetrics persists across
	// control-plane refreshes so beacon counters accumulate;
	// controlMetrics is shared by every AS's control service, built in or
	// attached at runtime, so sciera_control_* is network-wide.
	telem          *telemetry.Registry
	trace          *telemetry.TraceRing
	beaconMetrics  *beacon.RunnerMetrics
	controlMetrics control.Metrics
	queueHist      *telemetry.Histogram
}

// NewShell brings up everything of a network but its control-plane
// state: forwarding keys, telemetry, one border router and one control
// service per AS, in that transport-operation order (address and port
// allocation), which no later step disturbs — PKI provisioning and
// beaconing never touch the transport. The shell serves no paths until
// exactly one of Converge or InstallSnapshot gives it a registry;
// callers splice in what the topology still lacks (AddRuntimeLink) in
// between. Build is NewShell plus Converge.
func NewShell(topo *topology.Topology, transport simnet.Network, opts Options) (*Network, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		Topo:          topo,
		Transport:     transport,
		Opts:          opts,
		routers:       make(map[addr.IA]*router.Router),
		services:      make(map[addr.IA]*control.Service),
		keys:          make(map[addr.IA]scrypto.HopKey),
		signers:       make(map[addr.IA]*cppki.Signer),
		trcs:          cppki.NewStore(),
		beaconMetrics: &beacon.RunnerMetrics{},
	}
	if n.Opts.Now.IsZero() {
		n.Opts.Now = transport.Now()
	}
	if opts.WithPKI {
		n.beaconMetrics.VerifyLatency = telemetry.NewHistogram(0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10)
	}
	if !opts.NoTelemetry {
		n.telem = telemetry.NewRegistry()
		n.trace = telemetry.NewTraceRing(traceRingSize, traceSampleEvery)
		n.queueHist = n.telem.Histogram("sciera_link_queue_delay_ms",
			"head-of-line queueing delay at link transmit queues",
			[]float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100})
		if sim, ok := transport.(*simnet.Sim); ok {
			sim.RegisterTelemetry(n.telem)
		}
		n.beaconMetrics.Register(n.telem)
	}
	for _, as := range topo.ASes() {
		n.keys[as.IA] = scrypto.DeriveHopKey([]byte(fmt.Sprintf("as-secret-%s-%d", as.IA, opts.Seed)), 0)
	}
	if err := n.buildDataPlane(); err != nil {
		return nil, err
	}
	if err := n.startControlServices(); err != nil {
		return nil, err
	}
	return n, nil
}

// Build assembles the network: the shell, then its own convergence.
func Build(topo *topology.Topology, transport simnet.Network, opts Options) (*Network, error) {
	n, err := NewShell(topo, transport, opts)
	if err != nil {
		return nil, err
	}
	if err := n.Converge(); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

// errConverged refuses a second bring-up of one network.
var errConverged = errors.New("core: network already has a registry (Converge and InstallSnapshot start from NewShell)")

// Converge gives a shell its control-plane state by computing it: the
// PKI is provisioned when Options.WithPKI asks, and beaconing runs once
// over the topology as it stands.
func (n *Network) Converge() error {
	if n.Registry() != nil {
		return errConverged
	}
	if n.Opts.WithPKI {
		if err := n.provisionPKI(); err != nil {
			return err
		}
	}
	return n.RefreshControlPlane()
}

// startControlServices runs one control service per AS on the underlay.
func (n *Network) startControlServices() error {
	if n.telem != nil {
		n.controlMetrics.Register(n.telem)
	}
	for _, as := range n.Topo.ASes() {
		if err := n.startControlService(as.IA); err != nil {
			return err
		}
	}
	return nil
}

// startControlService runs one AS's control service on the network's
// shared metric cells.
func (n *Network) startControlService(ia addr.IA) error {
	svc := &control.Service{IA: ia, Registry: n.Registry, TRCs: n.TRCs, Metrics: &n.controlMetrics}
	if err := svc.Start(n.Transport, n.HostAddr()); err != nil {
		return err
	}
	n.services[ia] = svc
	return nil
}

// ControlService returns an AS's control service.
func (n *Network) ControlService(ia addr.IA) (*control.Service, bool) {
	s, ok := n.services[ia]
	return s, ok
}

// NewDaemon creates an end-host daemon inside the given AS, wired to
// the AS's control service and border router.
func (n *Network) NewDaemon(ia addr.IA) (*daemon.Daemon, error) {
	svc, ok := n.services[ia]
	if !ok {
		return nil, fmt.Errorf("core: no control service for %v", ia)
	}
	rtr, ok := n.routers[ia]
	if !ok {
		return nil, fmt.Errorf("core: no router for %v", ia)
	}
	d, err := daemon.New(n.Transport, daemon.Info{
		LocalIA:     ia,
		RouterAddr:  rtr.LocalAddr(),
		ControlAddr: svc.Addr(),
	}, n.HostAddr())
	if err != nil {
		return nil, err
	}
	if n.telem != nil {
		d.RegisterTelemetry(n.telem)
	}
	return d, nil
}

// AttachResponder starts an SCMP echo responder in an AS at the
// well-known end-host port, so the AS answers pings (every SCIERA AS
// does, even those without the measurement tool).
func (n *Network) AttachResponder(ia addr.IA) (*scmp.Responder, error) {
	rtr, ok := n.routers[ia]
	if !ok {
		return nil, fmt.Errorf("core: no router for %v", ia)
	}
	host := n.HostAddr()
	at := netip.AddrPortFrom(host.Addr(), router.EndhostPort)
	if !host.Addr().IsValid() {
		// UDPNet: all hosts share the loopback address, so only one
		// responder can own the well-known end-host SCMP port — the
		// same constraint a real single-host deployment has.
		at = netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), router.EndhostPort)
	}
	return scmp.NewResponder(n.Transport, ia, rtr.LocalAddr(), at)
}

// NewPinger creates an SCMP echo client inside an AS.
func (n *Network) NewPinger(ia addr.IA) (*scmp.Pinger, error) {
	rtr, ok := n.routers[ia]
	if !ok {
		return nil, fmt.Errorf("core: no router for %v", ia)
	}
	return scmp.NewPinger(n.Transport, ia, rtr.LocalAddr(), n.HostAddr())
}

// provisionPKI creates one TRC per ISD with the ISD's core ASes as
// authoritative CAs, and an AS certificate/signer per AS.
func (n *Network) provisionPKI() error {
	now := n.Opts.Now
	n.chains = cppki.NewChainCache()
	if n.telem != nil {
		n.chains.Register(n.telem)
	}
	byISD := make(map[addr.ISD][]addr.IA)
	coreByISD := make(map[addr.ISD][]addr.IA)
	for _, as := range n.Topo.ASes() {
		byISD[as.IA.ISD()] = append(byISD[as.IA.ISD()], as.IA)
		if as.Core {
			coreByISD[as.IA.ISD()] = append(coreByISD[as.IA.ISD()], as.IA)
		}
	}
	for isd, members := range byISD {
		cores := coreByISD[isd]
		if len(cores) == 0 {
			return fmt.Errorf("core: ISD %d has no core AS", isd)
		}
		authoritative := cores
		if len(authoritative) > 2 {
			authoritative = authoritative[:2]
		}
		p, err := cppki.ProvisionISD(isd, cores, authoritative, cppki.ProvisionOptions{
			NotBefore: now.Add(-time.Minute),
		})
		if err != nil {
			return err
		}
		if err := n.trcs.AddTrusted(p.TRC, now); err != nil {
			return err
		}
		// Issue an AS cert per member from the first authoritative CA.
		caMat := p.CACerts[authoritative[0]]
		caCert, err := x509.ParseCertificate(caMat.Cert)
		if err != nil {
			return err
		}
		for _, ia := range members {
			key, err := cppki.GenerateKey()
			if err != nil {
				return err
			}
			cert, err := cppki.NewASCert(ia, key.Public(), caCert, caMat.Key, now.Add(-time.Minute), 72*time.Hour)
			if err != nil {
				return err
			}
			n.signers[ia] = &cppki.Signer{
				IA:    ia,
				Key:   key,
				Chain: cppki.Chain{AS: cert, CA: caCert},
			}
		}
	}
	return nil
}

// RefreshControlPlane (re)runs beaconing over the current topology
// state. The live network does this periodically; the simulator calls
// it after every topology event (link failure, maintenance), which
// models the next beaconing interval converging. The run starts from
// the published registry: it decides again only what the event changed
// and builds only what that registry's run did not
// (beacon.Runner.RunFrom), and readers of the old registry never see it
// change.
func (n *Network) RefreshControlPlane() error {
	runner := &beacon.Runner{
		Topo:          n.Topo,
		Keys:          func(ia addr.IA) scrypto.HopKey { return n.keys[ia] },
		Timestamp:     uint32(n.Opts.Now.Unix()),
		BestPerOrigin: n.Opts.BestPerOrigin,
		Metrics:       n.beaconMetrics,
	}
	if n.Opts.WithPKI {
		runner.Signers = func(ia addr.IA) *cppki.Signer { return n.signers[ia] }
		runner.TRCs = n.trcs
		runner.Chains = n.chains
		runner.VerifyAt = n.Opts.Now
	}
	reg, err := runner.RunFrom(n.Registry())
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.registry = reg
	n.mu.Unlock()
	return nil
}

// circuit is one direction of a link as the data plane sees it: the
// sending router's interface holds it (router.Circuit: is the link up,
// how long is its transmit queue) and, on the simulator, the sending
// socket is bound to it (simnet.Wire: what delays a datagram). It is
// resolved once, when the link is wired, so no packet looks it up.
type circuit struct {
	link *topology.Link
	prop time.Duration // propagation delay, from link.LatencyMS
	// busy is the transmit-queue horizon in Unix nanoseconds (0 until
	// the first capped send): written by Delay inside the simulator's
	// lock, read by Backlog outside it.
	busy atomic.Int64
	hist *telemetry.Histogram // queueing-delay observations; nil without telemetry
}

// Up implements router.Circuit.
func (c *circuit) Up() bool { return c.link.Up() }

// Backlog implements router.Circuit: the transmit-queue delay a packet
// enqueued at now would wait.
func (c *circuit) Backlog(now int64) time.Duration {
	return time.Duration(max(c.busy.Load()-now, 0))
}

// Delay implements simnet.Wire: a down link loses the datagram, an
// uncapped one delays it by its propagation delay, and a capped one
// adds serialization time and head-of-line queueing behind what the
// circuit is still sending.
func (c *circuit) Delay(size int, now int64) (time.Duration, bool) {
	l := c.link
	if !l.Up() {
		return 0, false
	}
	if l.BandwidthMbps <= 0 {
		return c.prop, true
	}
	tx := time.Duration(float64(size*8) / (l.BandwidthMbps * 1e6) * float64(time.Second))
	start := max(now, c.busy.Load())
	c.busy.Store(start + int64(tx))
	queued := time.Duration(start - now)
	if c.hist != nil {
		// Observing is three atomic ops — it cannot perturb the event
		// order or consume randomness, so the reference run stays
		// byte-identical.
		c.hist.Observe(float64(queued) / float64(time.Millisecond))
	}
	return queued + tx + c.prop, true
}

// wire connects both ends of a link — one underlay socket per
// interface, as in production border routers — and resolves its two
// directions into c[0] (A to B) and c[1] (B to A). Built and runtime
// links both come through here.
func (n *Network) wire(l *topology.Link, c []circuit) error {
	ends := [2]topology.LinkEnd{l.A, l.B}
	var addrs [2]netip.AddrPort
	for i, end := range ends {
		a, err := n.routers[end.IA].AddInterface(end.IfID)
		if err != nil {
			return err
		}
		addrs[i] = a
		c[i].link, c[i].hist = l, n.queueHist
		c[i].prop = time.Duration(l.LatencyMS * float64(time.Millisecond))
	}
	sim, _ := n.Transport.(*simnet.Sim)
	for i, end := range ends {
		peer := addrs[1-i]
		if err := n.routers[end.IA].ConnectInterface(end.IfID, peer, &c[i]); err != nil {
			return err
		}
		if sim != nil {
			if err := sim.BindWire(addrs[i], peer, &c[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildDataPlane instantiates a border router per AS and wires the
// inter-AS links, their circuits in one allocation. On the simulator,
// every send no circuit decides — between hosts, services and the
// router of one AS — takes the intra-AS delay.
func (n *Network) buildDataPlane() error {
	for _, as := range n.Topo.ASes() {
		r, err := router.New(n.routerConfig(as.IA))
		if err != nil {
			return err
		}
		n.routers[as.IA] = r
	}
	links := n.Topo.Links()
	circuits := make([]circuit, 2*len(links))
	for i, l := range links {
		if err := n.wire(l, circuits[2*i:]); err != nil {
			return err
		}
	}
	if sim, ok := n.Transport.(*simnet.Sim); ok {
		intra := n.Opts.IntraASDelay
		if intra == 0 {
			intra = 100 * time.Microsecond
		}
		sim.Latency = func(netip.AddrPort, netip.AddrPort, int) (time.Duration, bool) {
			return intra, true
		}
	}
	return nil
}

// routerConfig assembles an AS's router configuration, including the
// telemetry wiring (shared registry, trace ring).
func (n *Network) routerConfig(ia addr.IA) router.Config {
	return router.Config{
		IA:            ia,
		Key:           n.keys[ia],
		Net:           n.Transport,
		UseDispatcher: n.Opts.UseDispatcher,
		Telemetry:     n.telem,
		Trace:         n.trace,
	}
}

// Router returns the border router of an AS.
func (n *Network) Router(ia addr.IA) (*router.Router, bool) {
	r, ok := n.routers[ia]
	return r, ok
}

// Telemetry returns the network-wide metric registry (nil with
// Options.NoTelemetry).
func (n *Network) Telemetry() *telemetry.Registry { return n.telem }

// TraceRing returns the network-wide sampled packet-trace ring (nil with
// Options.NoTelemetry).
func (n *Network) TraceRing() *telemetry.TraceRing { return n.trace }

// TelemetrySnapshot freezes the registry plus the trace ring; with
// telemetry disabled it returns an empty snapshot.
func (n *Network) TelemetrySnapshot() telemetry.Snapshot {
	if n.telem == nil {
		return telemetry.Snapshot{}
	}
	return n.telem.SnapshotWithTrace(n.trace)
}

// Key returns an AS's hop key (used by test harnesses and the
// omniscient verifier).
func (n *Network) Key(ia addr.IA) scrypto.HopKey { return n.keys[ia] }

// Signer returns an AS's control-plane signer (nil without PKI).
func (n *Network) Signer(ia addr.IA) *cppki.Signer { return n.signers[ia] }

// TRCs returns the network's TRC store.
func (n *Network) TRCs() *cppki.Store { return n.trcs }

// ChainCache returns the verified-chain cache (nil without PKI).
func (n *Network) ChainCache() *cppki.ChainCache { return n.chains }

// Registry returns the current segment registry.
func (n *Network) Registry() *beacon.Registry {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.registry
}

// Paths resolves src to dst on the current registry, which memoizes
// the combination (beacon.Registry.Paths). The campaign asks on full
// probes only — 4,366 lookups for 233,568 probes per campaign-sciera
// repetition — so what the memo saves is a Combine per full probe, not
// per probe. Callers share the returned slice and must not mutate it.
func (n *Network) Paths(src, dst addr.IA) []*combinator.Path {
	return n.Registry().Paths(src, dst)
}

// SetLinkUp changes a link's state and refreshes the control plane; a
// link already in that state is no event and refreshes nothing.
func (n *Network) SetLinkUp(linkID int, up bool) error {
	before := n.Topo.LinkGeneration()
	if err := n.Topo.SetLinkUp(linkID, up); err != nil {
		return err
	}
	if n.Topo.LinkGeneration() == before {
		return nil
	}
	return n.RefreshControlPlane()
}

// HostAddr allocates an underlay address for an end host inside an AS.
// On the simulator it is a fresh simulated IP; on UDP it is loopback.
func (n *Network) HostAddr() netip.AddrPort {
	if sim, ok := n.Transport.(*simnet.Sim); ok {
		return netip.AddrPortFrom(sim.AllocAddr(), 0)
	}
	return netip.AddrPort{} // UDPNet assigns loopback automatically
}

// Close shuts down all routers and control services.
func (n *Network) Close() error {
	for _, s := range n.services {
		_ = s.Close()
	}
	for _, r := range n.routers {
		_ = r.Close()
	}
	return nil
}
