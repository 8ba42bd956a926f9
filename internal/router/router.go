// Package router implements the SCION border router: it terminates the
// IP-UDP "layer 2.5" underlay, verifies hop-field MACs with the AS's
// forwarding key, advances the path, and forwards packets to the next
// border router or delivers them to AS-local end hosts. It also
// originates SCMP error messages and answers traceroute requests.
//
// One Router instance models an AS's border-router plane (the paper's
// lean deployments run a single commodity server per AS, Section 4.3.2).
// It is written against simnet.Network and runs identically on the
// discrete-event simulator and on real loopback UDP sockets.
//
// A packet's fate is a function of its header, the interface it arrived
// on and the hop key: decide (decide.go) computes it from the packet
// alone — no router, lock, socket or counter — reading the header bytes
// in place and the path through a spath.View, which decodes only the
// current info and hop field. Everything the router then does about a
// verdict lives in one shell here: route resolves an egress against the
// interface table and asks its circuit — held by the interface since
// wire-up — whether it is up, leave is the single exit (end-host port,
// wire image, account, enqueue, originate), account is the only
// function that touches the counters and the trace ring, and every
// packet — a lone one is a run of one — leaves through the processor's
// egress burst and one flush.
//
// The forwarding path is allocation-free in steady state: parse state,
// the MAC instance and serialization scratch live in packet processors
// on a free list per router, and a forwarded packet is never
// re-serialized — the view patches the path pointers and SegID
// accumulators directly into the received bytes (spath.View.Patch),
// which the transport's buffer-ownership contract lets the handler
// mutate and send onward.
package router

import (
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"sciera/internal/addr"
	"sciera/internal/scrypto"
	"sciera/internal/simnet"
	"sciera/internal/slayers"
	"sciera/internal/spath"
	"sciera/internal/telemetry"
)

// DispatcherPort is the well-known underlay port of the legacy
// dispatcher (Section 4.8). A router configured with UseDispatcher
// delivers all local traffic there instead of directly to the
// application's port.
//
// Even in dispatcherless mode the port retains one role, exactly as in
// the production migration: SCMP *requests* (echo, traceroute) address
// a host, not a socket, so they are delivered to this well-known
// end-host port where the SCION stack's responder listens. Replies and
// errors are demultiplexed to the probing application directly.
const DispatcherPort = 30041

// EndhostPort is the alias used when referring to the port's
// dispatcherless role.
const EndhostPort = DispatcherPort

// scmpQuoteLen caps the quoted offending packet in SCMP errors.
const scmpQuoteLen = 512

// Metrics counts router events; all fields are atomic
// (telemetry.Counter keeps atomic.Uint64's Add/Load surface and lets the
// same cells double as registered metric series). Every packet the
// router takes in or originates ends in exactly one outcome:
// Received + SCMPSent = Forwarded + Delivered + Answered + the five
// drop counters.
type Metrics struct {
	Received      telemetry.Counter
	Forwarded     telemetry.Counter
	Delivered     telemetry.Counter
	Answered      telemetry.Counter
	MACFailures   telemetry.Counter
	IngressDrops  telemetry.Counter
	NoRouteDrops  telemetry.Counter
	LinkDownDrops telemetry.Counter
	ParseFailures telemetry.Counter
	SCMPSent      telemetry.Counter
}

// Conserved checks the identity above, which holds whenever no packet
// is inside the router: every packet it took in or originated ended in
// exactly one outcome counter.
func (m *Metrics) Conserved() error {
	in := m.Received.Load() + m.SCMPSent.Load()
	out := m.Forwarded.Load() + m.Delivered.Load() + m.Answered.Load() +
		m.MACFailures.Load() + m.IngressDrops.Load() + m.NoRouteDrops.Load() +
		m.LinkDownDrops.Load() + m.ParseFailures.Load()
	if in != out {
		return fmt.Errorf("%d packets in (received %d + originated %d), %d accounted for",
			in, m.Received.Load(), m.SCMPSent.Load(), out)
	}
	return nil
}

// register adopts the metric cells into a registry under the router
// metric names, labeled with the owning AS.
func (m *Metrics) register(reg *telemetry.Registry, l telemetry.Label) {
	reg.RegisterCounter("sciera_router_received_total", "packets received by the router", &m.Received, l)
	reg.RegisterCounter("sciera_router_forwarded_total", "packets forwarded to a neighbor AS", &m.Forwarded, l)
	reg.RegisterCounter("sciera_router_delivered_total", "packets delivered to AS-local hosts", &m.Delivered, l)
	reg.RegisterCounter("sciera_router_answered_total", "traceroute probes answered by the router", &m.Answered, l)
	reg.RegisterCounter("sciera_router_mac_failures_total", "packets dropped for hop-field MAC failure", &m.MACFailures, l)
	reg.RegisterCounter("sciera_router_ingress_drops_total", "packets dropped for ingress interface mismatch", &m.IngressDrops, l)
	reg.RegisterCounter("sciera_router_noroute_drops_total", "packets dropped with no usable route", &m.NoRouteDrops, l)
	reg.RegisterCounter("sciera_router_linkdown_drops_total", "packets dropped on a down egress circuit", &m.LinkDownDrops, l)
	reg.RegisterCounter("sciera_router_parse_failures_total", "packets dropped as undecodable", &m.ParseFailures, l)
	reg.RegisterCounter("sciera_router_scmp_sent_total", "SCMP messages originated by the router", &m.SCMPSent, l)
}

// Config configures a Router.
type Config struct {
	IA  addr.IA
	Key scrypto.HopKey
	Net simnet.Network
	// LocalAddr is the underlay bind address (zero for automatic).
	LocalAddr netip.AddrPort
	// UseDispatcher delivers AS-local traffic to the shared dispatcher
	// port instead of the application's own UDP port.
	UseDispatcher bool
	// Metrics receives counters; nil allocates private ones.
	Metrics *Metrics
	// Telemetry receives the router's metric series (the Metrics cells
	// plus per-interface counters); nil keeps them in a private,
	// unexposed registry so the hot path never branches on "telemetry
	// on/off".
	Telemetry *telemetry.Registry
	// Trace receives sampled per-packet observations; nil disables
	// tracing (a nil ring never samples).
	Trace *telemetry.TraceRing
}

// Circuit is the L2 circuit behind an external interface, as whoever
// wired the interface models it (ConnectInterface).
type Circuit interface {
	// Up reports whether the circuit carries traffic.
	Up() bool
	// Backlog is the transmit-queue delay a packet enqueued at now
	// (Unix nanoseconds) would wait; read for sampled packets only.
	Backlog(now int64) time.Duration
}

// iface is one external interface: a dedicated underlay socket (as in
// production border routers, one socket per L2 circuit), the remote
// end's address, its circuit (nil: always up, no queue) and the
// interface's metric cells — resolved once at wire-up so the forwarding
// path touches bare atomics only.
type iface struct {
	conn    simnet.Conn
	remote  netip.AddrPort
	circuit Circuit
	fwd     *telemetry.Counter // packets sent out this interface
	drops   *telemetry.Counter // drops attributed to this egress
	macFail *telemetry.Counter // MAC failures of packets arriving here
}

// ErrClosed is returned by wiring calls on a closed router.
var ErrClosed = errors.New("router: closed")

// Router is a border router instance.
type Router struct {
	cfg Config
	// conn is the AS-internal socket: end hosts send here, local
	// delivery and SCMP origination leave from here.
	conn simnet.Conn

	mu     sync.RWMutex
	ifaces map[uint16]*iface
	closed bool // guarded by mu; Close is idempotent, post-close wiring fails

	// procs holds the idle packet processors: parse state, MAC instance
	// and serialization scratch reused across packets. A free list, not a
	// sync.Pool: what forwarding allocates must not depend on which P a
	// goroutine runs on, or on when the collector runs.
	procMu sync.Mutex
	procs  []*packetProcessor

	metrics *Metrics
	reg     *telemetry.Registry
	trace   *telemetry.TraceRing
	iaLabel telemetry.Label
}

// packetProcessor bundles everything the forwarding pipeline needs per
// packet so that steady-state processing allocates nothing: the parsed
// packet (path view and L4 structs), one CMAC instance keyed with the
// AS's hop key, scratch for originating SCMP messages (the full path
// and its reversal, the serialized reply), and the egress burst: what
// is queued to leave on conn at the next flush.
type packetProcessor struct {
	pkt      packet
	mac      *scrypto.CMAC
	fwd, rev spath.Path
	buf      []byte

	conn  simnet.Conn
	wires [][]byte
	dests []netip.AddrPort
}

// New binds the router's internal socket.
func New(cfg Config) (*Router, error) {
	if cfg.Net == nil {
		return nil, errors.New("router: Config.Net required")
	}
	mac, err := scrypto.NewHopCMAC(cfg.Key)
	if err != nil {
		return nil, fmt.Errorf("router %v: %w", cfg.IA, err)
	}
	r := &Router{
		cfg:     cfg,
		ifaces:  make(map[uint16]*iface),
		metrics: cfg.Metrics,
		reg:     cfg.Telemetry,
		trace:   cfg.Trace,
		iaLabel: telemetry.L("ia", cfg.IA.String()),
	}
	// The instance that validated the key serves the first packets.
	r.procs = append(r.procs, &packetProcessor{mac: mac})
	if r.metrics == nil {
		r.metrics = &Metrics{}
	}
	if r.reg == nil {
		r.reg = telemetry.NewRegistry()
	}
	r.metrics.register(r.reg, r.iaLabel)
	conn, err := cfg.Net.ListenBatch(cfg.LocalAddr, func(pkts [][]byte, from []netip.AddrPort) {
		r.handleBatch(pkts, 0, originInternal)
	})
	if err != nil {
		return nil, fmt.Errorf("router %v: %w", cfg.IA, err)
	}
	r.conn = conn
	return r, nil
}

// LocalAddr returns the router's internal underlay address — where end
// hosts in the AS send their packets.
func (r *Router) LocalAddr() netip.AddrPort { return r.conn.LocalAddr() }

// IA returns the router's AS.
func (r *Router) IA() addr.IA { return r.cfg.IA }

// Metrics returns the router's counters.
func (r *Router) Metrics() *Metrics { return r.metrics }

// AddInterface creates the underlay socket for a local interface and
// returns its address (the L2 circuit endpoint the neighbor sends to).
// Interface 0 is refused — the pipeline reserves it for "AS-internal" —
// and so is an ID the router already has. The lock is held across the
// bind so no socket can be created on a router that a concurrent Close
// has already torn down.
func (r *Router) AddInterface(ifID uint16) (netip.AddrPort, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return netip.AddrPort{}, fmt.Errorf("router %v if %d: %w", r.cfg.IA, ifID, ErrClosed)
	}
	if ifID == 0 {
		return netip.AddrPort{}, fmt.Errorf("router %v: interface 0 is reserved for AS-internal traffic", r.cfg.IA)
	}
	if _, dup := r.ifaces[ifID]; dup {
		return netip.AddrPort{}, fmt.Errorf("router %v: interface %d already exists", r.cfg.IA, ifID)
	}
	conn, err := r.cfg.Net.ListenBatch(netip.AddrPortFrom(r.conn.LocalAddr().Addr(), 0),
		func(pkts [][]byte, from []netip.AddrPort) {
			r.handleBatch(pkts, ifID, originExternal)
		})
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("router %v if %d: %w", r.cfg.IA, ifID, err)
	}
	// Resolve the interface's labeled metric cells here, at wire-up —
	// the hot path only ever touches the resolved atomics.
	ifl := telemetry.L("ifid", strconv.FormatUint(uint64(ifID), 10))
	it := &iface{
		conn:    conn,
		fwd:     r.reg.Counter("sciera_router_if_forwarded_total", "packets forwarded out an interface", r.iaLabel, ifl),
		drops:   r.reg.Counter("sciera_router_if_drops_total", "packets dropped at an egress interface", r.iaLabel, ifl),
		macFail: r.reg.Counter("sciera_router_if_mac_failures_total", "MAC failures of packets arriving on an interface", r.iaLabel, ifl),
	}
	r.ifaces[ifID] = it
	return conn.LocalAddr(), nil
}

// ConnectInterface sets the neighbor's circuit endpoint for a local
// interface previously created with AddInterface, and the circuit that
// carries it (nil: always up).
func (r *Router) ConnectInterface(ifID uint16, remote netip.AddrPort, c Circuit) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("router %v if %d: %w", r.cfg.IA, ifID, ErrClosed)
	}
	it, ok := r.ifaces[ifID]
	if !ok {
		return fmt.Errorf("router %v: unknown interface %d", r.cfg.IA, ifID)
	}
	it.remote, it.circuit = remote, c
	return nil
}

// InterfaceAddr returns the local circuit endpoint of an interface.
func (r *Router) InterfaceAddr(ifID uint16) (netip.AddrPort, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	it, ok := r.ifaces[ifID]
	if !ok {
		return netip.AddrPort{}, false
	}
	return it.conn.LocalAddr(), true
}

// Close detaches all sockets and clears the interface table. It is
// idempotent — a second Close returns nil — and subsequent
// AddInterface/ConnectInterface calls fail with ErrClosed, so no new
// socket can be bound on a dead router.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	for id, it := range r.ifaces {
		_ = it.conn.Close()
		delete(r.ifaces, id)
	}
	return r.conn.Close()
}

// handleBatch processes one delivered burst. Every buffer is owned by
// this call for its duration (simnet.BatchHandler contract): packets are
// patched in place and sent onward before returning.
//
// The burst is cut into runs of packets that arrived with one header
// image. The first packet of a run, its leader, is decided in full —
// parse, decide, route, leave. A follower provably shares every
// header-derived verdict (ingress check, MAC inputs, path transitions
// and egress all follow from header bytes alone), so it needs only an
// L4 decode and the leader's patched header copied over its own, and
// the followers that leave with the leader's verdict are accounted
// together. A lone packet is a run of one; every run leaves by one
// flush. A leader that did not leave, or that examined a router-alert
// hop, shares nothing: the next packet leads a run of its own.
func (r *Router) handleBatch(pkts [][]byte, inIf uint16, origin originKind) {
	r.metrics.Received.Add(uint64(len(pkts)))
	proc := r.getProc()
	defer r.putProc(proc)
	pkt := &proc.pkt
	parseErr := decision{verdict: telemetry.VerdictParseErr}

	for i := 0; i < len(pkts); {
		raw := pkts[i]
		i++
		if err := pkt.parse(raw); err != nil {
			r.account(&parseErr, inIf, nil, 1)
			continue
		}
		// A packet is compared with its predecessor as received —
		// before leave patches the leader's path state into raw, and
		// before a follower takes the leader's header.
		hl := pkt.hl
		more := i < len(pkts) && sameHeader(pkts[i], raw, hl)
		d, out := r.route(pkt, decide(pkt, proc.mac, r.cfg.IA, inIf, origin))
		if r.leave(proc, pkt, inIf, d, out) && !d.alert {
			// Followers leave with the leader's path state, exactly as
			// deciding each in full would have produced. n counts those
			// not yet accounted; an exception accounts them first, so
			// counters and trace see the order of the packets.
			patched, conn, n := raw[:hl], proc.conn, 0
			var host netip.Addr
			if out == nil {
				host = slayers.DstHost(raw)
			}
			for more {
				b := pkts[i]
				i++
				more = i < len(pkts) && sameHeader(pkts[i], b, hl)
				if err := pkt.l4.DecodeSameFlow(b, hl); err != nil {
					r.account(&d, inIf, out, n)
					r.account(&parseErr, inIf, nil, 1)
					n = 0
					continue
				}
				var to netip.AddrPort
				if out != nil {
					to = out.remote
				} else if port, ok := r.localPort(&pkt.l4); ok {
					to = netip.AddrPortFrom(host, port)
				} else {
					// No port for this L4: the leader's exit takes it
					// from here (b is quoted as received — unpatched).
					r.account(&d, inIf, out, n)
					n = 0
					pkt.raw = b
					r.leave(proc, pkt, inIf, d, nil)
					proc.bind(conn) // the error left on a socket of its own
					continue
				}
				copy(b[:hl], patched)
				n++
				proc.enqueue(b, to)
			}
			r.account(&d, inIf, out, n)
		}
		proc.flush()
	}
}

// sameHeader reports whether a arrived with the header image of b: same
// length, same bytes up to hl, the end of the path.
func sameHeader(a, b []byte, hl int) bool {
	return len(a) == len(b) && bytes.Equal(a[:hl], b[:hl])
}

// route resolves a Forwarded verdict against the interface table: an
// unknown or unconnected egress is NoRoute, a down circuit LinkDown
// (each owing the source an SCMP error); otherwise the path moves to
// the next hop and the egress interface is returned. Any other verdict
// passes through.
func (r *Router) route(pkt *packet, d decision) (decision, *iface) {
	if d.verdict != telemetry.VerdictForwarded || d.answer {
		return d, nil
	}
	r.mu.RLock()
	out, ok := r.ifaces[d.egress]
	r.mu.RUnlock()
	if !ok || !out.remote.IsValid() {
		d.verdict = telemetry.VerdictNoRoute
		d.scmp = slayers.SCMP{Type: slayers.SCMPDestinationUnreachable, Code: slayers.CodeNoRoute}
		return d, nil
	}
	if out.circuit != nil && !out.circuit.Up() {
		d.verdict = telemetry.VerdictLinkDown
		d.scmp = slayers.SCMP{Type: slayers.SCMPExternalInterfaceDown, IA: r.cfg.IA, IfID: uint64(d.egress)}
		return d, out
	}
	if err := pkt.path.IncHop(); err != nil {
		return decision{verdict: telemetry.VerdictParseErr}, nil
	}
	return d, out
}

// leave is the single exit: it resolves the end-host port of a
// Delivered packet, produces the wire image — a forwarded or delivered
// packet changed only its path state, which the view patches into the
// bytes it arrived in — accounts for the verdict, queues the packet on
// the processor's egress burst and originates the SCMP message the
// router owes, if any. It reports whether the packet left as decided.
func (r *Router) leave(proc *packetProcessor, pkt *packet, inIf uint16, d decision, out *iface) bool {
	var conn simnet.Conn
	var to netip.AddrPort
	switch {
	case d.answer:
	case d.verdict == telemetry.VerdictForwarded:
		conn, to = out.conn, out.remote
	case d.verdict == telemetry.VerdictDelivered:
		if port, ok := r.localPort(&pkt.l4); ok {
			conn, to = r.conn, netip.AddrPortFrom(slayers.DstHost(pkt.raw), port)
		} else {
			d.verdict = telemetry.VerdictNoRoute
			d.scmp = slayers.SCMP{Type: slayers.SCMPDestinationUnreachable, Code: slayers.CodePortUnreach}
		}
	}
	r.account(&d, inIf, out, 1)
	if conn != nil {
		pkt.path.Patch()
		proc.bind(conn)
		proc.enqueue(pkt.raw, to)
	}
	if d.scmp.Type != 0 {
		r.originate(proc, pkt, d.scmp)
	}
	return conn != nil
}

// account is the only place a verdict reaches the counters, the
// per-interface cells and the trace ring, for n packets that met it
// (a run's followers are accounted together; n = 0 does nothing). out
// is the egress interface of a Forwarded or LinkDown verdict. Tracing
// costs the unsampled majority one atomic add; a nil ring never
// samples.
func (r *Router) account(d *decision, inIf uint16, out *iface, n int) {
	if n == 0 {
		return
	}
	m, un := r.metrics, uint64(n)
	if d.answer {
		// Not traced: the reply is, when it leaves.
		m.Answered.Add(un)
		return
	}
	switch d.verdict {
	case telemetry.VerdictForwarded:
		m.Forwarded.Add(un)
		out.fwd.Add(un)
	case telemetry.VerdictDelivered:
		m.Delivered.Add(un)
	case telemetry.VerdictMACFail:
		m.MACFailures.Add(un)
		r.mu.RLock()
		if in, ok := r.ifaces[inIf]; ok {
			in.macFail.Add(un)
		}
		r.mu.RUnlock()
	case telemetry.VerdictIngressDrop:
		m.IngressDrops.Add(un)
	case telemetry.VerdictNoRoute:
		m.NoRouteDrops.Add(un)
	case telemetry.VerdictLinkDown:
		m.LinkDownDrops.Add(un)
		out.drops.Add(un)
	case telemetry.VerdictParseErr:
		m.ParseFailures.Add(un)
	}
	if k := r.trace.SampleN(n); k > 0 {
		// Queue delay is only measured for the sampled minority: the
		// egress circuit's transmit-queue backlog.
		now := r.cfg.Net.Now().UnixNano()
		var qd time.Duration
		if d.verdict == telemetry.VerdictForwarded && out.circuit != nil {
			qd = out.circuit.Backlog(now)
		}
		e := telemetry.TraceEntry{
			TimeNS:  now,
			IA:      uint64(r.cfg.IA),
			Ingress: inIf,
			Egress:  d.egress,
			Hop:     d.hopIdx,
			Verdict: d.verdict,
			QueueNS: int64(qd),
		}
		for ; k > 0; k-- {
			r.trace.Record(e)
		}
	}
}

// bind names the socket the egress burst leaves on from here on; what
// is queued for another socket is sent first.
func (p *packetProcessor) bind(conn simnet.Conn) {
	if conn != p.conn {
		p.flush()
		p.conn = conn
	}
}

// getProc takes an idle packet processor, or makes one.
func (r *Router) getProc() *packetProcessor {
	r.procMu.Lock()
	defer r.procMu.Unlock()
	if n := len(r.procs); n > 0 {
		proc := r.procs[n-1]
		r.procs = r.procs[:n-1]
		return proc
	}
	mac, _ := scrypto.NewHopCMAC(r.cfg.Key) // key validated by New
	return &packetProcessor{mac: mac}
}

// putProc returns a processor to the idle list.
func (r *Router) putProc(proc *packetProcessor) {
	r.procMu.Lock()
	r.procs = append(r.procs, proc)
	r.procMu.Unlock()
}

// enqueue appends a packet to the egress burst.
func (p *packetProcessor) enqueue(wire []byte, to netip.AddrPort) {
	p.wires = append(p.wires, wire)
	p.dests = append(p.dests, to)
}

// flush sends the queued egress burst with one SendBatch — one
// scheduling pass on the transport — and resets the scratch.
func (p *packetProcessor) flush() {
	if len(p.wires) == 0 {
		return
	}
	_ = p.conn.SendBatch(p.wires, p.dests)
	p.wires = p.wires[:0]
	p.dests = p.dests[:0]
}

// localPort determines the underlay port for local delivery: the
// application's own UDP port in dispatcherless mode, or the shared
// dispatcher port.
func (r *Router) localPort(pkt *slayers.Packet) (uint16, bool) {
	if r.cfg.UseDispatcher {
		return DispatcherPort, true
	}
	switch {
	case pkt.UDP != nil:
		return pkt.UDP.DstPort, true
	case pkt.SCMP != nil:
		switch pkt.SCMP.Type {
		case slayers.SCMPEchoRequest, slayers.SCMPTracerouteRequest:
			// Requests address the host, not a socket: deliver to the
			// well-known end-host SCMP port.
			return EndhostPort, true
		case slayers.SCMPEchoReply, slayers.SCMPTracerouteReply:
			// By convention the identifier is the prober's underlay
			// port (the dispatcher historically demultiplexed on it).
			return pkt.SCMP.Identifier, true
		default:
			// Error message: route to the offending packet's source
			// port, parsed from the quote.
			return slayers.QuotedPort(pkt.Payload)
		}
	}
	return 0, false
}

// originate sends the source of pkt the SCMP message the router owes
// it — an error quoting pkt, or a traceroute reply — through the same
// parse, decide, route and leave as any packet: the reply is serialized
// into the processor's scratch and read back from there. The reply's
// path is the only full path the router builds: pkt's, decoded from
// the view in the state decide left it in, reversed at the current hop.
// Errors are never sent in response to SCMP errors (ICMP's classic
// amplification guard). What is queued is flushed first, and the
// message right after, so it keeps the place in the send order that
// deciding packet by packet gives it. msg is taken by value and copied
// to the heap here, on the rare path, so that no decision escapes on the
// common one.
func (r *Router) originate(proc *packetProcessor, pkt *packet, msg slayers.SCMP) {
	if msg.Type.IsError() && pkt.l4.SCMP != nil && pkt.l4.SCMP.Type.IsError() {
		return
	}
	pkt.path.Decode(&proc.fwd)
	if err := spath.ReverseFromCurrentInto(&proc.rev, &proc.fwd); err != nil {
		return
	}
	reply := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA:   slayers.SrcIA(pkt.raw),
			SrcIA:   r.cfg.IA,
			DstHost: slayers.SrcHost(pkt.raw),
			SrcHost: r.conn.LocalAddr().Addr(),
			Path:    proc.rev,
		},
		SCMP: &msg,
	}
	if msg.Type.IsError() {
		// Quote the offending packet as received. One this router
		// originated is quoted with the path state it failed in, and
		// copied out of the scratch the reply is about to take.
		quote := pkt.raw
		if pkt.self {
			pkt.path.Patch()
			quote = bytes.Clone(quote)
		}
		if len(quote) > scmpQuoteLen {
			quote = quote[:scmpQuoteLen]
		}
		reply.Payload = quote
	}
	wire, err := reply.Serialize(proc.buf[:0])
	if err != nil {
		return
	}
	proc.buf = wire
	rp := &packet{self: true}
	if err := rp.parse(wire); err != nil {
		return
	}
	proc.flush()
	r.metrics.SCMPSent.Add(1)
	d, out := r.route(rp, decide(rp, proc.mac, r.cfg.IA, 0, originSelf))
	r.leave(proc, rp, 0, d, out)
	proc.flush()
}
