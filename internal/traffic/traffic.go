// Package traffic is an open-loop, flow-level workload generator for
// the SCIERA data plane: it multiplexes millions of simulated endpoints
// behind each vantage AS and drives their flows — Poisson arrivals,
// heavy-tailed (Pareto or lognormal) sizes, per-flow pacing — as real
// SCION packets through the batched router pipeline on the simulator.
//
// The paper's campaign only measures 11 vantage ASes pinging each
// other; this package is what puts the network under *load*: per-path
// saturation of capacity-limited circuits, LightningFilter rate-limit
// behavior at scale, SCMP backpressure when circuits fail mid-flow.
// Open-loop means arrivals never slow down because the network is
// struggling — the defining property of real user populations, and the
// one that exposes congestion collapse.
//
// A flow is its header words: New serializes each (pair, path) packet
// once, and a running flow holds only the 40 bytes its packets add (see
// flow). Each active flow's next burst waits on the engine's pacing
// line, each pair's next arrival on a line of its own (simnet.Line):
// 100k concurrent flows are a few scheduler events, and neither an
// arrival nor a burst allocates.
//
// Determinism: all randomness comes from per-pair seeded PRNGs consumed
// inside simulator callbacks, so two runs with the same Config produce
// identical packet sequences, counters and completion-time histograms.
package traffic

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/core"
	"sciera/internal/simnet"
	"sciera/internal/slayers"
	"sciera/internal/telemetry"
)

// SinkPort is the UDP/SCION port the engine's per-AS sinks listen on.
const SinkPort = 41000

// Payload layout: every engine packet starts with this header, padded
// to Config.PayloadBytes. A burst copies its (pair, path) template,
// stores the flow's words and checksum, and patches the seq field with
// an RFC 1624 incremental checksum update: no flow serializes a packet.
const (
	payloadMagicOff    = 0  // u32 "TRF1"
	payloadFlowOff     = 4  // u32 flow ID (engine-global)
	payloadEndpointOff = 8  // u32 endpoint behind the source AS
	payloadTotalOff    = 12 // u32 packets in this flow
	payloadSeqOff      = 16 // u32 packet index, patched per packet
	payloadArrivalOff  = 20 // u64 flow arrival, unix nanos (virtual)
	payloadHdrLen      = 28
)

var payloadMagic = [4]byte{'T', 'R', 'F', '1'}

// Pair is one directed vantage relation carrying load.
type Pair struct {
	Src, Dst addr.IA
}

// Config parameterizes an Engine. The workload it describes is a
// repeatable artifact: same Config, same transcript.
type Config struct {
	// Pairs are the directed (source AS, destination AS) relations to
	// load. Required.
	Pairs []Pair
	// Endpoints is the simulated user population multiplexed behind
	// each source AS; every flow is attributed to one endpoint drawn
	// uniformly from it (default 1 << 20).
	Endpoints int
	// ArrivalRate is the open-loop flow arrival rate per pair, in
	// flows per second of virtual time. Required (> 0).
	ArrivalRate float64
	// FlowSizes draws each flow's size in packets (default
	// Pareto{Alpha: 1.3}).
	FlowSizes SizeDist
	// PayloadBytes is the UDP payload per packet (>= 28 for the flow
	// header; default 200).
	PayloadBytes int
	// PacketInterval is the pacing gap between a flow's emission
	// bursts (default 10ms). A flow's throughput is
	// Burst*PayloadBytes/PacketInterval.
	PacketInterval time.Duration
	// Burst is how many packets a flow emits per wakeup (default 4).
	// Each burst is handed to the data plane as one SendBatch.
	Burst int
	// PathsPerPair stripes a pair's flows across up to this many
	// distinct paths, round-robin by flow (default 1: all flows share
	// the first path — the per-path saturation setup).
	PathsPerPair int
	// Seed drives all workload randomness (arrivals, sizes, endpoint
	// and path choice).
	Seed int64

	// Wrap, when set, transforms a flow's payload, at being the flow's
	// arrival — the hook for shim headers such as LightningFilter's
	// packet authenticator (seal the flow header, let the filter verify
	// it at the sink). It runs per burst and must be pure. Wrapped flows
	// carry identical bytes on every packet: the per-packet seq stamp is
	// skipped, since any wrapper MAC would cover it.
	Wrap func(src addr.IA, at time.Time, inner []byte) []byte
	// Unwrap recovers the flow header from a wrapped payload at the
	// sink (inverse of Wrap); returning false discards the packet as
	// foreign.
	Unwrap func(payload []byte) ([]byte, bool)
	// SinkCheck, when set, is an admission decision run against every
	// raw packet reaching a sink before it is accounted — deploy a
	// LightningFilter (or any middlebox model) in front of the
	// receivers. Rejected packets count in Stats.SinkRejected.
	SinkCheck func(raw []byte) bool
}

func (c *Config) defaults() error {
	if len(c.Pairs) == 0 {
		return fmt.Errorf("traffic: Config.Pairs required")
	}
	if c.ArrivalRate <= 0 {
		return fmt.Errorf("traffic: Config.ArrivalRate must be > 0")
	}
	if c.Endpoints <= 0 {
		c.Endpoints = 1 << 20
	}
	if c.FlowSizes == nil {
		c.FlowSizes = Pareto{}
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 200
	}
	if c.PayloadBytes < payloadHdrLen {
		return fmt.Errorf("traffic: PayloadBytes %d below flow header %d", c.PayloadBytes, payloadHdrLen)
	}
	if c.PacketInterval <= 0 {
		c.PacketInterval = 10 * time.Millisecond
	}
	if c.Burst <= 0 {
		c.Burst = 4
	}
	if c.PathsPerPair <= 0 {
		c.PathsPerPair = 1
	}
	return nil
}

// Stats is a point-in-time summary of an engine's run.
type Stats struct {
	FlowsStarted     uint64
	FlowsCompleted   uint64
	ActiveFlows      int64
	PeakActiveFlows  int
	PacketsSent      uint64
	PacketsDelivered uint64
	BytesDelivered   uint64
	// SCMPBackpressure counts SCMP error messages the network pushed
	// back at the sources (link down, unreachable, ...); LinkDown is
	// the subset attributing the error to a failed circuit.
	SCMPBackpressure uint64
	SCMPLinkDown     uint64
	// SinkRejected counts packets that reached a sink but were refused
	// by Config.SinkCheck (e.g. a LightningFilter rate limiter).
	SinkRejected uint64
	// EndpointsSimulated is the configured population size summed over
	// source ASes; EndpointsTouched counts those that actually
	// originated at least one flow.
	EndpointsSimulated int
	EndpointsTouched   int
}

// Engine drives the workload. All state mutation happens inside
// simulator callbacks (single-threaded event loop); construction and
// Stats reads are the only outside touches.
type Engine struct {
	net   simnet.Network
	cfg   Config
	pairs []*pairState
	srcs  map[addr.IA]*srcState
	sinks map[addr.IA]*sinkState
	stop  time.Time

	flowsStarted     telemetry.Counter
	flowsCompleted   telemetry.Counter
	packetsSent      telemetry.Counter
	packetsDelivered telemetry.Counter
	bytesDelivered   telemetry.Counter
	scmpBackpressure telemetry.Counter
	scmpLinkDown     telemetry.Counter
	sinkRejected     telemetry.Counter
	activeFlows      telemetry.Gauge
	fct              *telemetry.Histogram
	peakActive       int

	// pace holds each active flow's next burst, PacketInterval after
	// its last.
	pace *simnet.Line[*flow]

	// Reusable emission scratch: per-burst packet buffers. Flows come
	// from the free list, else from slab, a chunk of 512.
	pkts      [][]byte
	dests     []netip.AddrPort
	freeFlows []*flow
	slab      []flow
	nextFlow  uint32
}

// srcState is one vantage AS originating load: a single injection conn
// multiplexing the whole endpoint population (endpoint identity rides
// in the flow header), plus the SCMP backpressure listener.
type srcState struct {
	ia      addr.IA
	conn    simnet.Conn
	ingress netip.AddrPort
	dec     slayers.Packet
	touched []uint64
	ntouch  int
}

// sinkState is one destination AS absorbing load and accounting flow
// completions.
type sinkState struct {
	conn simnet.Conn
	at   netip.AddrPort
	dec  slayers.Packet
	// remaining holds, by flow ID, the packets a flow still owes, 0
	// for none; stray those of IDs beyond it (see count). Flows losing
	// packets stay resident: the incomplete-flow measurement.
	remaining []int32
	stray     map[uint32]*int32
	resident  int
}

type pairState struct {
	rng       *rand.Rand
	templates []flowTemplate
	nextPath  int
	// arrivals holds the pair's next flow arrival (Start makes it).
	arrivals *simnet.Line[*pairState]
}

// flowTemplate is one (pair, path) packet, serialized in raw with the
// flow's words zeroed; pkt serializes a Wrap'd burst.
type flowTemplate struct {
	raw   []byte
	l4Off int
	src   *srcState
	pkt   slayers.Packet
}

// flow is a running flow: the words its packets add to its template,
// csum the UDP checksum with them stored and seq 0.
type flow struct {
	tmpl                *flowTemplate
	id, endpoint, total uint32
	sent                uint32 // packets emitted
	arrival             int64
	csum                uint16
}

// New builds an engine over an assembled network: per-source injection
// conns, per-destination sinks, and per-pair packet templates over the
// pair's discovered paths.
func New(n *core.Network, cfg Config) (*Engine, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	e := &Engine{
		net:   n.Transport,
		cfg:   cfg,
		srcs:  make(map[addr.IA]*srcState),
		sinks: make(map[addr.IA]*sinkState),
		pkts:  make([][]byte, cfg.Burst),
		dests: make([]netip.AddrPort, cfg.Burst),
		fct: telemetry.NewHistogram(
			1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000),
	}
	e.pace = simnet.NewLine(e.net, cfg.PacketInterval, e.emit)
	for i, p := range cfg.Pairs {
		if err := e.addPair(n, i, p); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

// addPair adds pair i: its source, sink and first PathsPerPair paths.
func (e *Engine) addPair(n *core.Network, i int, p Pair) error {
	src, err := e.srcFor(n, p.Src)
	if err != nil {
		return err
	}
	sink, err := e.sinkFor(n, p.Dst)
	if err != nil {
		return err
	}
	paths := n.Paths(p.Src, p.Dst)
	if len(paths) == 0 {
		return fmt.Errorf("traffic: no paths %v -> %v", p.Src, p.Dst)
	}
	ps := &pairState{rng: rand.New(rand.NewSource(e.cfg.Seed ^ int64(uint64(i+1)*0x9e3779b97f4a7c15)))}
	for _, path := range paths[:min(e.cfg.PathsPerPair, len(paths))] {
		ps.templates = append(ps.templates, e.template(p, src, sink, path))
	}
	e.pairs = append(e.pairs, ps)
	return nil
}

func (e *Engine) srcFor(n *core.Network, ia addr.IA) (*srcState, error) {
	if s, ok := e.srcs[ia]; ok {
		return s, nil
	}
	rtr, ok := n.Router(ia)
	if !ok {
		return nil, fmt.Errorf("traffic: no router for source %v", ia)
	}
	s := &srcState{ia: ia, ingress: rtr.LocalAddr(), touched: make([]uint64, (e.cfg.Endpoints+63)/64)}
	conn, err := e.net.Listen(n.HostAddr(), func(pkt []byte, from netip.AddrPort) {
		e.handleBackpressure(s, pkt)
	})
	if err != nil {
		return nil, err
	}
	s.conn = conn
	e.srcs[ia] = s
	return s, nil
}

func (e *Engine) sinkFor(n *core.Network, ia addr.IA) (*sinkState, error) {
	if k, ok := e.sinks[ia]; ok {
		return k, nil
	}
	k := &sinkState{stray: make(map[uint32]*int32)}
	at := netip.AddrPortFrom(n.HostAddr().Addr(), SinkPort)
	conn, err := e.net.ListenBatch(at, func(pkts [][]byte, from []netip.AddrPort) {
		for _, pkt := range pkts {
			e.handleSinkPacket(k, pkt)
		}
	})
	if err != nil {
		return nil, err
	}
	k.conn, k.at = conn, conn.LocalAddr()
	e.sinks[ia] = k
	return k, nil
}

// template serializes the packet of one (pair, path) combination with
// the flow's words zeroed. The SCION source stays the injection conn's
// real address and port so SCMP errors route back to the backpressure
// listener; endpoint identity rides in the payload.
func (e *Engine) template(p Pair, src *srcState, sink *sinkState, path *combinator.Path) flowTemplate {
	from := src.conn.LocalAddr()
	payload := make([]byte, e.cfg.PayloadBytes)
	copy(payload[payloadMagicOff:], payloadMagic[:])
	t := flowTemplate{src: src, pkt: slayers.Packet{
		Hdr:     slayers.SCION{DstIA: p.Dst, SrcIA: p.Src, DstHost: sink.at.Addr(), SrcHost: from.Addr(), Path: *path.Raw.Copy()},
		UDP:     &slayers.UDP{SrcPort: from.Port(), DstPort: SinkPort},
		Payload: payload,
	}}
	t.raw = serialize(&t.pkt)
	t.l4Off = int(binary.BigEndian.Uint16(t.raw[6:8]))
	return t
}

// serialize serializes a packet built from discovered paths, where
// failure is a programming error, not a runtime condition.
func serialize(pkt *slayers.Packet) []byte {
	raw, err := pkt.Serialize(nil)
	if err != nil {
		panic(fmt.Sprintf("traffic: serialize: %v", err))
	}
	return raw
}

// Start schedules the open-loop arrival processes: flows arrive on
// every pair for d of virtual time, then arrivals cease (in-progress
// flows drain). The caller drives the simulator (Run/RunUntil).
func (e *Engine) Start(d time.Duration) {
	e.stop = e.net.Now().Add(d)
	for _, p := range e.pairs {
		p.arrivals = simnet.NewLine(e.net, 0, e.arrive)
		p.arrivals.PushAfter(expInterval(p.rng, e.cfg.ArrivalRate), p)
	}
}

// arrive starts a flow on p and schedules p's next arrival, until stop.
func (e *Engine) arrive(p *pairState) {
	if e.net.Now().After(e.stop) {
		return
	}
	e.startFlow(p)
	p.arrivals.PushAfter(expInterval(p.rng, e.cfg.ArrivalRate), p)
}

// startFlow draws a flow (endpoint, size, path) and emits its first
// burst immediately.
func (e *Engine) startFlow(p *pairState) {
	endpoint := uint32(p.rng.Intn(e.cfg.Endpoints))
	total := uint32(max(e.cfg.FlowSizes.Sample(p.rng), 0))
	tmpl := &p.templates[p.nextPath%len(p.templates)]
	p.nextPath++

	if w, b, src := endpoint/64, uint64(1)<<(endpoint%64), tmpl.src; src.touched[w]&b == 0 {
		src.touched[w] |= b
		src.ntouch++
	}

	f := e.allocFlow()
	*f = flow{tmpl: tmpl, id: e.nextFlow, endpoint: endpoint, total: total, arrival: e.net.Now().UnixNano()}
	e.nextFlow++
	f.setChecksum()

	e.flowsStarted.Inc()
	e.peakActive = max(e.peakActive, int(e.activeFlows.Add(1)))
	e.emit(f)
}

func (e *Engine) allocFlow() *flow {
	if n := len(e.freeFlows); n > 0 {
		f := e.freeFlows[n-1]
		e.freeFlows = e.freeFlows[:n-1]
		return f
	}
	if len(e.slab) == cap(e.slab) {
		e.slab = make([]flow, 0, 512)
	}
	e.slab = e.slab[:len(e.slab)+1]
	return &e.slab[len(e.slab)-1]
}

// setChecksum computes the UDP checksum of the flow's packet at seq 0:
// the template's, with the flow's words patched in over its zeros.
func (f *flow) setChecksum() {
	var w [2 + 20]byte
	copy(w[:2], f.tmpl.raw[f.tmpl.l4Off+6:])
	for i, v := range [...]uint32{f.id, f.endpoint, f.total, uint32(f.arrival >> 32), uint32(f.arrival)} {
		slayers.PatchUint32(w[:], 0, 2+4*i, v)
	}
	f.csum = binary.BigEndian.Uint16(w[:])
}

// appendPacket appends the flow's packet seq to b: the template with
// the flow's words and checksum stored, then seq patched in.
func (f *flow) appendPacket(b []byte, seq uint32) []byte {
	t := f.tmpl
	b = append(b, t.raw...)
	pl := b[t.l4Off+8:] // UDP checksum at +6, payload after the 8-byte header
	binary.BigEndian.PutUint32(pl[payloadFlowOff:], f.id)
	binary.BigEndian.PutUint32(pl[payloadEndpointOff:], f.endpoint)
	binary.BigEndian.PutUint32(pl[payloadTotalOff:], f.total)
	binary.BigEndian.PutUint64(pl[payloadArrivalOff:], uint64(f.arrival))
	binary.BigEndian.PutUint16(b[t.l4Off+6:], f.csum)
	slayers.PatchUint32(b, t.l4Off+6, t.l4Off+8+payloadSeqOff, seq)
	return b
}

// emit sends one pacing burst of a flow and reschedules (or retires)
// it. Each burst goes out as a single SendBatch: one scheduler event
// through the simulator, one batched handler call in the router.
func (e *Engine) emit(f *flow) {
	n := min(f.total-f.sent, uint32(e.cfg.Burst))
	t := f.tmpl
	for i := range n {
		buf := e.pkts[i][:0]
		switch {
		case e.cfg.Wrap == nil:
			buf = f.appendPacket(buf, f.sent+i)
		case i == 0: // the seq-0 payload, wrapped, is every packet's
			t.pkt.Payload = e.cfg.Wrap(t.src.ia, time.Unix(0, f.arrival), f.appendPacket(buf, 0)[t.l4Off+8:])
			buf = serialize(&t.pkt)
		default:
			buf = append(buf, e.pkts[0]...)
		}
		e.pkts[i], e.dests[i] = buf, t.src.ingress
	}
	if err := t.src.conn.SendBatch(e.pkts[:n], e.dests[:n]); err == nil {
		e.packetsSent.Add(uint64(n))
	}
	f.sent += n
	if f.sent < f.total {
		e.pace.Push(f)
		return
	}
	e.activeFlows.Dec()
	e.freeFlows = append(e.freeFlows, f)
}

// handleSinkPacket accounts one delivered packet and detects flow
// completion.
func (e *Engine) handleSinkPacket(k *sinkState, raw []byte) {
	if e.cfg.SinkCheck != nil && !e.cfg.SinkCheck(raw) {
		e.sinkRejected.Inc()
		return
	}
	if err := k.dec.Decode(raw); err != nil || k.dec.UDP == nil {
		return
	}
	pl, ok := k.dec.Payload, true
	if e.cfg.Unwrap != nil {
		pl, ok = e.cfg.Unwrap(pl)
	}
	if !ok || len(pl) < payloadHdrLen || [4]byte(pl[payloadMagicOff:payloadMagicOff+4]) != payloadMagic {
		return
	}
	e.packetsDelivered.Inc()
	e.bytesDelivered.Add(uint64(len(raw)))
	id := binary.BigEndian.Uint32(pl[payloadFlowOff:])
	c := k.count(id, e.nextFlow)
	rem := *c
	if rem == 0 {
		rem = int32(binary.BigEndian.Uint32(pl[payloadTotalOff:]))
		k.resident++
	}
	if *c = max(rem-1, 0); *c > 0 {
		return
	}
	k.resident--
	delete(k.stray, id)
	e.flowsCompleted.Inc()
	arrival := int64(binary.BigEndian.Uint64(pl[payloadArrivalOff:]))
	e.fct.Observe(float64(e.net.Now().UnixNano()-arrival) / 1e6)
}

// count returns flow id's count. An ID not issued yet (forged) counts in
// stray until a flow beyond remaining extends it to the IDs issued.
func (k *sinkState) count(id, issued uint32) *int32 {
	if int64(id) >= int64(len(k.remaining)) {
		if id >= issued {
			if k.stray[id] == nil {
				k.stray[id] = new(int32)
			}
			return k.stray[id]
		}
		k.remaining = append(k.remaining, make([]int32, int(issued)-len(k.remaining))...)
		for sid, c := range k.stray {
			if sid < issued {
				k.remaining[sid] = *c
				delete(k.stray, sid)
			}
		}
	}
	return &k.remaining[id]
}

// handleBackpressure classifies packets the network sends back at a
// source conn — SCMP errors are the network's congestion/failure
// signal to an open-loop sender.
func (e *Engine) handleBackpressure(s *srcState, raw []byte) {
	if err := s.dec.Decode(raw); err != nil || s.dec.SCMP == nil || !s.dec.SCMP.Type.IsError() {
		return
	}
	e.scmpBackpressure.Inc()
	if t := s.dec.SCMP.Type; t == slayers.SCMPExternalInterfaceDown || t == slayers.SCMPInternalConnectivityDown {
		e.scmpLinkDown.Inc()
	}
}

// Stats snapshots the run.
func (e *Engine) Stats() Stats {
	st := Stats{
		FlowsStarted:     e.flowsStarted.Load(),
		FlowsCompleted:   e.flowsCompleted.Load(),
		ActiveFlows:      e.activeFlows.Load(),
		PeakActiveFlows:  e.peakActive,
		PacketsSent:      e.packetsSent.Load(),
		PacketsDelivered: e.packetsDelivered.Load(),
		BytesDelivered:   e.bytesDelivered.Load(),
		SCMPBackpressure: e.scmpBackpressure.Load(),
		SCMPLinkDown:     e.scmpLinkDown.Load(),
		SinkRejected:     e.sinkRejected.Load(),
	}
	for _, s := range e.srcs {
		st.EndpointsSimulated += e.cfg.Endpoints
		st.EndpointsTouched += s.ntouch
	}
	return st
}

// FCT returns the flow-completion-time histogram (milliseconds of
// virtual time, arrival to last packet delivered).
func (e *Engine) FCT() telemetry.HistogramSnapshot { return e.fct.Snapshot() }

// IncompleteFlows counts flows that delivered some but not all packets
// so far — the loss-visible population.
func (e *Engine) IncompleteFlows() int {
	n := 0
	for _, k := range e.sinks {
		n += k.resident
	}
	return n
}

// RegisterTelemetry adopts the engine's cells into a registry, so load
// runs expose the same metric families as the rest of the stack.
func (e *Engine) RegisterTelemetry(reg *telemetry.Registry) {
	reg.RegisterCounter("sciera_traffic_flows_started_total", "flows started by the open-loop generator", &e.flowsStarted)
	reg.RegisterCounter("sciera_traffic_flows_completed_total", "flows fully delivered to a sink", &e.flowsCompleted)
	reg.RegisterCounter("sciera_traffic_packets_sent_total", "packets injected into the data plane", &e.packetsSent)
	reg.RegisterCounter("sciera_traffic_packets_delivered_total", "packets delivered to a sink", &e.packetsDelivered)
	reg.RegisterCounter("sciera_traffic_bytes_delivered_total", "bytes delivered to a sink", &e.bytesDelivered)
	reg.RegisterCounter("sciera_traffic_scmp_backpressure_total", "SCMP errors received at source conns", &e.scmpBackpressure)
	reg.RegisterCounter("sciera_traffic_scmp_link_down_total", "SCMP errors attributing failure to a downed circuit", &e.scmpLinkDown)
	reg.RegisterCounter("sciera_traffic_sink_rejected_total", "packets refused by the sink admission check", &e.sinkRejected)
	reg.RegisterGauge("sciera_traffic_active_flows", "flows currently emitting", &e.activeFlows)
	reg.RegisterHistogram("sciera_traffic_fct_ms", "flow completion time (virtual ms)", e.fct)
}

// Close detaches all conns.
func (e *Engine) Close() {
	for _, s := range e.srcs {
		_ = s.conn.Close()
	}
	for _, k := range e.sinks {
		_ = k.conn.Close()
	}
}
