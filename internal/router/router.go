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
// on and the hop key: decide (decide.go) computes it from the decoded
// packet alone — no router, lock, socket or counter. Everything the
// router then does about a verdict lives in one shell here: route
// resolves an egress against the interface table, leave is the single
// exit (end-host port, wire image, account, enqueue, originate),
// account is the only function that touches the counters and the trace
// ring, and every packet — a lone one is a run of one — leaves through
// the processor's egress burst and one flush.
//
// The forwarding path is allocation-free in steady state: decode state,
// the MAC instance and serialization scratch live in pooled packet
// processors (one sync.Pool per router), and a forwarded packet is
// never re-serialized — the path pointers and SegID accumulators are
// patched directly into the received bytes (slayers.Packet.PatchPath),
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
	// LinkUp reports interface state; nil means always up. The
	// simulator flips this to model L2 circuit failures.
	LinkUp func(ifID uint16) bool
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
	// QueueDelay reports the egress transmit-queue delay for a circuit
	// (from the local endpoint to the neighbor's), when the transport
	// models one. Consulted only for sampled (traced) packets; nil
	// reports no queueing.
	QueueDelay func(from, to netip.AddrPort) time.Duration
}

// iface is one external interface: a dedicated underlay socket (as in
// production border routers, one socket per L2 circuit), the remote
// end's address, and the interface's metric cells — resolved once in
// AddInterface so the forwarding path touches bare atomics only.
type iface struct {
	conn    simnet.Conn
	remote  netip.AddrPort
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

	// procs pools packet processors: decode state, MAC instance and
	// serialization scratch reused across packets (SNIPPETS exemplar).
	procs sync.Pool

	metrics *Metrics
	reg     *telemetry.Registry
	trace   *telemetry.TraceRing
	iaLabel telemetry.Label
}

// packetProcessor bundles everything the forwarding pipeline needs per
// packet so that steady-state processing allocates nothing: the decoded
// layer structs (whose path slices DecodeFromBytes reuses), one CMAC
// instance keyed with the AS's hop key, a scratch buffer for
// serializing router-originated packets, and the egress burst: what is
// queued to leave on conn at the next flush.
type packetProcessor struct {
	pkt slayers.Packet
	mac *scrypto.CMAC
	buf []byte

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
	r.procs.New = func() any {
		mac, _ := scrypto.NewHopCMAC(cfg.Key) // key validated above
		return &packetProcessor{mac: mac}
	}
	// The instance that validated the key serves the first packets.
	r.procs.Put(&packetProcessor{mac: mac})
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
// interface previously created with AddInterface.
func (r *Router) ConnectInterface(ifID uint16, remote netip.AddrPort) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("router %v if %d: %w", r.cfg.IA, ifID, ErrClosed)
	}
	it, ok := r.ifaces[ifID]
	if !ok {
		return fmt.Errorf("router %v: unknown interface %d", r.cfg.IA, ifID)
	}
	it.remote = remote
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

func (r *Router) linkUp(ifID uint16) bool {
	if r.cfg.LinkUp == nil {
		return true
	}
	return r.cfg.LinkUp(ifID)
}

// handleBatch processes one delivered burst. Every buffer is owned by
// this call for its duration (simnet.BatchHandler contract): packets are
// patched in place and sent onward before returning.
//
// The burst is cut into runs of packets that arrived with one header
// image. The first packet of a run, its leader, is decided in full —
// decode, decide, route, leave. A follower provably shares every
// header-derived verdict (ingress check, MAC inputs, path transitions
// and egress all follow from header bytes alone), so it needs only an
// L4 decode and the leader's patched header copied over its own. A lone
// packet is a run of one; every run leaves by one flush. A leader that
// did not leave, or that examined a router-alert hop, shares nothing:
// the next packet leads a run of its own.
func (r *Router) handleBatch(pkts [][]byte, inIf uint16, origin originKind) {
	r.metrics.Received.Add(uint64(len(pkts)))
	proc := r.procs.Get().(*packetProcessor)
	defer r.procs.Put(proc)

	for i := 0; i < len(pkts); {
		raw := pkts[i]
		i++
		if err := proc.pkt.Decode(raw); err != nil {
			r.account(&decision{verdict: telemetry.VerdictParseErr}, inIf, nil)
			continue
		}
		// A packet is compared with its predecessor as received —
		// before leave patches the leader's path state into raw, and
		// before a follower takes the leader's header.
		hl := slayers.CmnHdrLen + proc.pkt.Hdr.Path.Len()
		more := i < len(pkts) && sameHeader(pkts[i], raw, hl)
		d, out := r.route(&proc.pkt, decide(&proc.pkt, proc.mac, r.cfg.IA, inIf, origin))
		if r.leave(proc, &proc.pkt, raw, inIf, d, out) && !d.alert {
			// Followers leave with the leader's path state, exactly as
			// deciding each in full would have produced.
			patched, conn := raw[:hl], proc.conn
			for more {
				b := pkts[i]
				i++
				more = i < len(pkts) && sameHeader(pkts[i], b, hl)
				if err := proc.pkt.DecodeSameFlow(b, hl); err != nil {
					r.account(&decision{verdict: telemetry.VerdictParseErr}, inIf, nil)
					continue
				}
				var to netip.AddrPort
				if out != nil {
					to = out.remote
				} else if port, ok := r.localPort(&proc.pkt); ok {
					to = netip.AddrPortFrom(proc.pkt.Hdr.DstHost, port)
				} else {
					// No port for this L4: the leader's exit takes it
					// from here (b is quoted as received — unpatched).
					r.leave(proc, &proc.pkt, b, inIf, d, nil)
					proc.bind(conn) // the error left on a socket of its own
					continue
				}
				copy(b[:hl], patched)
				r.account(&d, inIf, out)
				proc.enqueue(b, to)
			}
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
func (r *Router) route(pkt *slayers.Packet, d decision) (decision, *iface) {
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
	if !r.linkUp(d.egress) {
		d.verdict = telemetry.VerdictLinkDown
		d.scmp = slayers.SCMP{Type: slayers.SCMPExternalInterfaceDown, IA: r.cfg.IA, IfID: uint64(d.egress)}
		return d, out
	}
	if err := pkt.Hdr.Path.IncHop(); err != nil {
		return decision{verdict: telemetry.VerdictParseErr}, nil
	}
	return d, out
}

// leave is the single exit: it resolves the end-host port of a
// Delivered packet, produces the wire image, accounts for the verdict,
// queues the packet on the processor's egress burst and originates the
// SCMP message the router owes, if any. raw is the buffer pkt was
// decoded from (nil for router-originated packets). It reports whether
// the packet left as decided.
func (r *Router) leave(proc *packetProcessor, pkt *slayers.Packet, raw []byte, inIf uint16, d decision, out *iface) bool {
	var conn simnet.Conn
	var to netip.AddrPort
	switch {
	case d.answer:
	case d.verdict == telemetry.VerdictForwarded:
		conn, to = out.conn, out.remote
	case d.verdict == telemetry.VerdictDelivered:
		if port, ok := r.localPort(pkt); ok {
			conn, to = r.conn, netip.AddrPortFrom(pkt.Hdr.DstHost, port)
		} else {
			d.verdict = telemetry.VerdictNoRoute
			d.scmp = slayers.SCMP{Type: slayers.SCMPDestinationUnreachable, Code: slayers.CodePortUnreach}
		}
	}
	var wire []byte
	if conn != nil {
		var err error
		if wire, err = r.wireImage(proc, pkt, raw); err != nil {
			d, conn = decision{verdict: telemetry.VerdictParseErr}, nil
		}
	}
	r.account(&d, inIf, out)
	if conn != nil {
		proc.bind(conn)
		proc.enqueue(wire, to)
	}
	if d.scmp.Type != 0 {
		r.originate(proc, pkt, raw, d.scmp)
	}
	return conn != nil
}

// account is the only place a verdict reaches the counters, the
// per-interface cells and the trace ring. out is the egress interface
// of a Forwarded or LinkDown verdict. Tracing costs the unsampled
// majority one atomic add; a nil ring never samples.
func (r *Router) account(d *decision, inIf uint16, out *iface) {
	m := r.metrics
	if d.answer {
		// Not traced: the reply is, when it leaves.
		m.Answered.Add(1)
		return
	}
	switch d.verdict {
	case telemetry.VerdictForwarded:
		m.Forwarded.Add(1)
		out.fwd.Inc()
	case telemetry.VerdictDelivered:
		m.Delivered.Add(1)
	case telemetry.VerdictMACFail:
		m.MACFailures.Add(1)
		r.mu.RLock()
		if in, ok := r.ifaces[inIf]; ok {
			in.macFail.Inc()
		}
		r.mu.RUnlock()
	case telemetry.VerdictIngressDrop:
		m.IngressDrops.Add(1)
	case telemetry.VerdictNoRoute:
		m.NoRouteDrops.Add(1)
	case telemetry.VerdictLinkDown:
		m.LinkDownDrops.Add(1)
		out.drops.Inc()
	case telemetry.VerdictParseErr:
		m.ParseFailures.Add(1)
	}
	if r.trace.Sample() {
		// Queue delay is only measured for the sampled minority: the
		// hook reads the transport's per-wire busy horizon.
		var qd time.Duration
		if d.verdict == telemetry.VerdictForwarded && r.cfg.QueueDelay != nil {
			qd = r.cfg.QueueDelay(out.conn.LocalAddr(), out.remote)
		}
		r.trace.Record(telemetry.TraceEntry{
			TimeNS:  r.cfg.Net.Now().UnixNano(),
			IA:      uint64(r.cfg.IA),
			Ingress: inIf,
			Egress:  d.egress,
			Hop:     d.hopIdx,
			Verdict: d.verdict,
			QueueNS: int64(qd),
		})
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

// wireImage produces the outgoing bytes for pkt. On the fast path (the
// packet arrived on the wire) only the path pointers and SegID
// accumulators changed, so the received buffer is patched in place —
// zero copies, zero allocations. Router-originated packets (raw == nil)
// are serialized into the processor's scratch buffer, which stays
// untouched until the packet is flushed (originate flushes on both
// sides of its reply).
func (r *Router) wireImage(proc *packetProcessor, pkt *slayers.Packet, raw []byte) ([]byte, error) {
	if raw != nil {
		if err := pkt.PatchPath(raw); err != nil {
			return nil, err
		}
		return raw, nil
	}
	out, err := pkt.Serialize(proc.buf[:0])
	if err != nil {
		return nil, err
	}
	proc.buf = out
	return out, nil
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
// decide, route and leave as any packet. Errors are never sent in
// response to SCMP errors (ICMP's classic amplification guard). What is
// queued is flushed first, and the message right after, so it keeps the
// place in the send order that deciding packet by packet gives it. msg
// is taken by value and copied to the heap here, on the rare path, so
// that no decision escapes on the common one.
func (r *Router) originate(proc *packetProcessor, pkt *slayers.Packet, raw []byte, msg slayers.SCMP) {
	if msg.Type.IsError() && pkt.SCMP != nil && pkt.SCMP.Type.IsError() {
		return
	}
	rev, err := spath.ReverseFromCurrent(&pkt.Hdr.Path)
	if err != nil {
		return
	}
	reply := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA:   pkt.Hdr.SrcIA,
			SrcIA:   r.cfg.IA,
			DstHost: pkt.Hdr.SrcHost,
			SrcHost: r.conn.LocalAddr().Addr(),
			Path:    *rev,
		},
		SCMP: &msg,
	}
	if msg.Type.IsError() {
		// Quote the offending packet as received when its wire image is
		// at hand; packets originated by this router are serialized
		// first.
		quote := raw
		if quote == nil {
			if quote, err = pkt.Serialize(nil); err != nil {
				return
			}
		}
		if len(quote) > scmpQuoteLen {
			quote = quote[:scmpQuoteLen]
		}
		reply.Payload = quote
	}
	proc.flush()
	r.metrics.SCMPSent.Add(1)
	d, out := r.route(reply, decide(reply, proc.mac, r.cfg.IA, 0, originSelf))
	r.leave(proc, reply, nil, 0, d, out)
	proc.flush()
}
