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
// same cells double as registered metric series).
type Metrics struct {
	Received      telemetry.Counter
	Forwarded     telemetry.Counter
	Delivered     telemetry.Counter
	MACFailures   telemetry.Counter
	IngressDrops  telemetry.Counter
	NoRouteDrops  telemetry.Counter
	LinkDownDrops telemetry.Counter
	ParseFailures telemetry.Counter
	SCMPSent      telemetry.Counter
}

// register adopts the metric cells into a registry under the router
// metric names, labeled with the owning AS.
func (m *Metrics) register(reg *telemetry.Registry, ia addr.IA) {
	l := telemetry.L("ia", ia.String())
	reg.RegisterCounter("sciera_router_received_total", "packets received by the router", &m.Received, l)
	reg.RegisterCounter("sciera_router_forwarded_total", "packets forwarded to a neighbor AS", &m.Forwarded, l)
	reg.RegisterCounter("sciera_router_delivered_total", "packets delivered to AS-local hosts", &m.Delivered, l)
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
// instance keyed with the AS's hop key, and a scratch buffer for
// serializing router-originated packets. The batch fields are the
// burst fast path's reusable scratch: the reference packet's original
// header image and the coalesced egress burst.
type packetProcessor struct {
	pkt slayers.Packet
	mac *scrypto.CMAC
	buf []byte

	refHdr []byte
	wires  [][]byte
	dests  []netip.AddrPort
}

// New binds the router's internal socket.
func New(cfg Config) (*Router, error) {
	if cfg.Net == nil {
		return nil, errors.New("router: Config.Net required")
	}
	if _, err := scrypto.NewHopCMAC(cfg.Key); err != nil {
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
		mac, _ := scrypto.NewHopCMAC(cfg.Key) // key validated in New
		return &packetProcessor{mac: mac}
	}
	if r.metrics == nil {
		r.metrics = &Metrics{}
	}
	if r.reg == nil {
		r.reg = telemetry.NewRegistry()
	}
	r.metrics.register(r.reg, cfg.IA)
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
// The lock is held across the bind so no socket can be created on a
// router that a concurrent Close has already torn down.
func (r *Router) AddInterface(ifID uint16) (netip.AddrPort, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return netip.AddrPort{}, fmt.Errorf("router %v if %d: %w", r.cfg.IA, ifID, ErrClosed)
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

// tracePacket records one sampled packet observation. Callers guard with
// r.trace.Sample() so the unsampled majority pays one atomic add and
// nothing else; a nil ring never samples.
func (r *Router) tracePacket(verdict telemetry.TraceVerdict, ingress, egress uint16, hop uint8, queue time.Duration) {
	r.trace.Record(telemetry.TraceEntry{
		TimeNS:  r.cfg.Net.Now().UnixNano(),
		IA:      uint64(r.cfg.IA),
		Ingress: ingress,
		Egress:  egress,
		Hop:     hop,
		Verdict: verdict,
		QueueNS: int64(queue),
	})
}

// origin classifies where a packet entered the router.
type originKind int

const (
	originInternal originKind = iota // AS-internal host or service
	originExternal                   // neighbor border router
	originSelf                       // generated by this router (SCMP)
)

// decisionKind classifies what the forwarding pipeline decided for one
// packet.
type decisionKind uint8

const (
	kindDrop    decisionKind = iota // nothing leaves (drop, or SCMP already injected)
	kindForward                     // wire goes out an external interface
	kindDeliver                     // wire goes to an AS-local end host
)

// decision is the outcome of the pipeline for one packet: the verdict,
// the resolved egress interface (forward) or end-host address
// (deliver), and the facts the burst fast path needs to replay the
// verdict on same-flow siblings — the egress/hop index for per-packet
// accounting, and whether a router-alert hop was examined (alert
// handling depends on L4 content, so alerted packets never share
// verdicts).
type decision struct {
	kind   decisionKind
	out    *iface
	wire   []byte
	to     netip.AddrPort
	egress uint16
	hopIdx uint8
	alert  bool
}

// emit performs the send a decision calls for. It is separate from the
// decision logic so the batch path can coalesce a burst's sends into
// one SendBatch instead.
func (r *Router) emit(d decision) {
	switch d.kind {
	case kindForward:
		_ = d.out.conn.Send(d.wire, d.out.remote)
	case kindDeliver:
		_ = r.conn.Send(d.wire, d.to)
	}
}

// handleBatch processes one delivered burst. Every buffer is owned by
// this call for its duration (simnet.BatchHandler contract): the fast
// path patches packets in place and sends them onward before returning.
//
// The burst fast path: the first packet of a run (the "leader") takes
// the full pipeline — decode, ingress check, MAC verification, path
// advance, egress resolution — and each follower whose header image is
// byte-identical to the leader's as received provably shares every one
// of those verdicts (the ingress check, MAC inputs, path transitions
// and egress all derive from header bytes alone), so it only needs an
// L4 decode plus the leader's patched header copied over it. One
// pooled processor, one ifaces lookup and one egress SendBatch serve
// the whole run. Runs end at the first differing header; leaders whose
// packets dropped, or that examined a router-alert hop (alert handling
// depends on L4 content), never start one.
func (r *Router) handleBatch(pkts [][]byte, inIf uint16, origin originKind) {
	r.metrics.Received.Add(uint64(len(pkts)))
	proc := r.procs.Get().(*packetProcessor)
	defer r.procs.Put(proc)

	i := 0
	for i < len(pkts) {
		raw := pkts[i]
		if err := proc.pkt.Decode(raw); err != nil {
			r.metrics.ParseFailures.Add(1)
			if r.trace.Sample() {
				r.tracePacket(telemetry.VerdictParseErr, inIf, 0, 0, 0)
			}
			i++
			continue
		}
		// The original header image must be captured before process
		// patches the path state into raw in place.
		hl := slayers.CmnHdrLen + proc.pkt.Hdr.Path.Len()
		canBurst := i+1 < len(pkts) &&
			len(pkts[i+1]) == len(raw) && bytes.Equal(pkts[i+1][:hl], raw[:hl])
		if canBurst {
			proc.refHdr = append(proc.refHdr[:0], raw[:hl]...)
		}
		d := r.process(proc, &proc.pkt, raw, inIf, origin)
		if d.kind == kindDrop || d.alert || !canBurst {
			r.emit(d)
			i++
			continue
		}
		i = r.runBurst(proc, pkts, i, hl, d, inIf)
	}
}

// runBurst extends the leader's decision d across same-flow followers
// starting at pkts[lead+1] and flushes the coalesced egress burst; it
// returns the index of the first packet not consumed. patched is the
// leader's post-process header image (aliasing its buffer — the path
// was patched in place), which is copied over each follower so the
// whole run leaves with identical path state, exactly as per-packet
// processing would have produced.
func (r *Router) runBurst(proc *packetProcessor, pkts [][]byte, lead, hl int, d decision, inIf uint16) int {
	leader := pkts[lead]
	patched := leader[:hl]
	conn := r.conn
	if d.kind == kindForward {
		conn = d.out.conn
	}
	proc.wires = append(proc.wires[:0], d.wire)
	proc.dests = append(proc.dests[:0], d.to)
	if d.kind == kindForward {
		proc.dests[0] = d.out.remote
	}
	j := lead + 1
	for j < len(pkts) {
		b := pkts[j]
		if len(b) != len(leader) || !bytes.Equal(b[:hl], proc.refHdr) {
			break
		}
		if err := proc.pkt.DecodeSameFlow(b, hl); err != nil {
			// Same accounting as the Decode failure this would be on
			// the per-packet path.
			r.metrics.ParseFailures.Add(1)
			if r.trace.Sample() {
				r.tracePacket(telemetry.VerdictParseErr, inIf, 0, 0, 0)
			}
			j++
			continue
		}
		switch d.kind {
		case kindForward:
			copy(b[:hl], patched)
			r.metrics.Forwarded.Add(1)
			d.out.fwd.Inc()
			if r.trace.Sample() {
				var qd time.Duration
				if r.cfg.QueueDelay != nil {
					qd = r.cfg.QueueDelay(d.out.conn.LocalAddr(), d.out.remote)
				}
				r.tracePacket(telemetry.VerdictForwarded, inIf, d.egress, d.hopIdx, qd)
			}
			proc.wires = append(proc.wires, b)
			proc.dests = append(proc.dests, d.out.remote)
		case kindDeliver:
			port, ok := r.localPort(&proc.pkt)
			if !ok {
				// Flush what has accumulated so the SCMP error keeps its
				// per-packet position in the send order, then take the
				// usual error path (quote b as received — unpatched).
				r.flushBurst(proc, conn)
				r.metrics.NoRouteDrops.Add(1)
				if r.trace.Sample() {
					r.tracePacket(telemetry.VerdictNoRoute, inIf, 0, d.hopIdx, 0)
				}
				r.sendSCMPError(proc, &proc.pkt, b, &slayers.SCMP{
					Type: slayers.SCMPDestinationUnreachable,
					Code: slayers.CodePortUnreach,
				})
				j++
				continue
			}
			copy(b[:hl], patched)
			r.metrics.Delivered.Add(1)
			if r.trace.Sample() {
				r.tracePacket(telemetry.VerdictDelivered, inIf, 0, d.hopIdx, 0)
			}
			proc.wires = append(proc.wires, b)
			proc.dests = append(proc.dests, netip.AddrPortFrom(proc.pkt.Hdr.DstHost, port))
		}
		j++
	}
	r.flushBurst(proc, conn)
	return j
}

// flushBurst sends the accumulated egress burst with one SendBatch —
// one scheduling pass on the transport — and resets the scratch.
func (r *Router) flushBurst(proc *packetProcessor, conn simnet.Conn) {
	if len(proc.wires) == 0 {
		return
	}
	_ = conn.SendBatch(proc.wires, proc.dests)
	proc.wires = proc.wires[:0]
	proc.dests = proc.dests[:0]
}

// process runs the forwarding pipeline and returns what it decided —
// the send itself is the caller's job (emit for a single packet,
// runBurst's coalesced SendBatch for a burst). pkt is the decoded
// packet and raw the buffer it was decoded from (nil for
// router-originated packets, which have no wire image yet). inIf is the
// arrival interface (meaningful only for originExternal).
func (r *Router) process(proc *packetProcessor, pkt *slayers.Packet, raw []byte, inIf uint16, origin originKind) decision {
	// Empty path: AS-local delivery only.
	if pkt.Hdr.Path.IsEmpty() {
		if pkt.Hdr.DstIA == r.cfg.IA && origin != originExternal {
			return r.deliverLocal(proc, pkt, raw, inIf)
		}
		r.metrics.NoRouteDrops.Add(1)
		if r.trace.Sample() {
			r.tracePacket(telemetry.VerdictNoRoute, inIf, 0, 0, 0)
		}
		return decision{}
	}

	first := true
	alerted := false
	for {
		info, err := pkt.Hdr.Path.CurrentInfo()
		if err != nil {
			r.metrics.ParseFailures.Add(1)
			if r.trace.Sample() {
				r.tracePacket(telemetry.VerdictParseErr, inIf, 0, 0, 0)
			}
			return decision{}
		}
		hop, err := pkt.Hdr.Path.CurrentHop()
		if err != nil {
			r.metrics.ParseFailures.Add(1)
			if r.trace.Sample() {
				r.tracePacket(telemetry.VerdictParseErr, inIf, 0, 0, 0)
			}
			return decision{}
		}
		hopIdx := uint8(pkt.Hdr.Path.CurrHF)
		if hop.RouterAlert {
			alerted = true
		}

		// Ingress check on the first processed hop. Self-originated
		// packets (SCMP replies on a mid-flight reversed path) skip it:
		// their first hop legitimately carries the interface the
		// original packet arrived on.
		if first {
			wantIn := spath.DataIngress(info, hop)
			switch origin {
			case originExternal:
				if wantIn != inIf {
					r.metrics.IngressDrops.Add(1)
					if r.trace.Sample() {
						r.tracePacket(telemetry.VerdictIngressDrop, inIf, 0, hopIdx, 0)
					}
					return decision{}
				}
			case originInternal:
				if wantIn != 0 {
					r.metrics.IngressDrops.Add(1)
					if r.trace.Sample() {
						r.tracePacket(telemetry.VerdictIngressDrop, inIf, 0, hopIdx, 0)
					}
					return decision{}
				}
			}
			first = false
		}

		// MAC verification. Peer-crossing hops (the boundary hops of a
		// Peer-flagged segment) verify against the accumulator as-is;
		// normal hops run the fold/advance algebra.
		peerCross := info.Peer &&
			((info.ConsDir && pkt.Hdr.Path.IsFirstHopOfSegment()) ||
				(!info.ConsDir && pkt.Hdr.Path.IsLastHopOfSegment()))
		valid := false
		if peerCross {
			valid = spath.VerifyPeerHopWith(proc.mac, info, hop)
		} else {
			valid = spath.VerifyHopWith(proc.mac, info, hop)
		}
		if !valid {
			r.metrics.MACFailures.Add(1)
			if origin == originExternal {
				r.mu.RLock()
				if in, ok := r.ifaces[inIf]; ok {
					in.macFail.Inc()
				}
				r.mu.RUnlock()
			}
			if r.trace.Sample() {
				r.tracePacket(telemetry.VerdictMACFail, inIf, 0, hopIdx, 0)
			}
			r.sendSCMPError(proc, pkt, raw, &slayers.SCMP{
				Type:    slayers.SCMPParameterProblem,
				Pointer: uint16(pkt.Hdr.Path.CurrHF),
			})
			return decision{}
		}

		// Traceroute: answer router-alert hops addressed to us.
		if hop.RouterAlert && pkt.SCMP != nil && pkt.SCMP.Type == slayers.SCMPTracerouteRequest {
			r.answerTraceroute(proc, pkt, spath.DataIngress(info, hop))
			return decision{}
		}

		egress := spath.DataEgress(info, hop)
		if pkt.Hdr.Path.IsLastHop() {
			if egress == 0 && pkt.Hdr.DstIA == r.cfg.IA {
				d := r.deliverLocal(proc, pkt, raw, inIf)
				d.alert = alerted
				return d
			}
			r.metrics.NoRouteDrops.Add(1)
			if r.trace.Sample() {
				r.tracePacket(telemetry.VerdictNoRoute, inIf, egress, hopIdx, 0)
			}
			if egress == 0 {
				r.sendSCMPError(proc, pkt, raw, &slayers.SCMP{
					Type: slayers.SCMPDestinationUnreachable,
					Code: slayers.CodeNoRoute,
				})
			}
			return decision{}
		}
		if pkt.Hdr.Path.IsLastHopOfSegment() && !(peerCross && egress != 0) {
			// Segment crossover (XOVER): the next segment's first hop
			// belongs to this AS too. This covers core joints (egress
			// 0) and non-core shortcuts, where the next hop decides the
			// true egress. A peer-crossing hop with an egress instead
			// forwards over the peering link: the far side of the link
			// starts the next segment.
			if err := pkt.Hdr.Path.IncHop(); err != nil {
				r.metrics.ParseFailures.Add(1)
				return decision{}
			}
			continue
		}
		if egress == 0 {
			// A non-terminal, non-boundary hop without an egress is
			// malformed.
			r.metrics.NoRouteDrops.Add(1)
			if r.trace.Sample() {
				r.tracePacket(telemetry.VerdictNoRoute, inIf, 0, hopIdx, 0)
			}
			return decision{}
		}

		// Forward out of egress: one ifaces lookup — shared by the whole
		// burst when this packet leads one.
		r.mu.RLock()
		out, ok := r.ifaces[egress]
		r.mu.RUnlock()
		if !ok || !out.remote.IsValid() {
			r.metrics.NoRouteDrops.Add(1)
			if r.trace.Sample() {
				r.tracePacket(telemetry.VerdictNoRoute, inIf, egress, hopIdx, 0)
			}
			r.sendSCMPError(proc, pkt, raw, &slayers.SCMP{
				Type: slayers.SCMPDestinationUnreachable,
				Code: slayers.CodeNoRoute,
			})
			return decision{}
		}
		if !r.linkUp(egress) {
			r.metrics.LinkDownDrops.Add(1)
			out.drops.Inc()
			if r.trace.Sample() {
				r.tracePacket(telemetry.VerdictLinkDown, inIf, egress, hopIdx, 0)
			}
			r.sendSCMPError(proc, pkt, raw, &slayers.SCMP{
				Type: slayers.SCMPExternalInterfaceDown,
				IA:   addr.IA(r.cfg.IA),
				IfID: uint64(egress),
			})
			return decision{}
		}
		if err := pkt.Hdr.Path.IncHop(); err != nil {
			r.metrics.ParseFailures.Add(1)
			return decision{}
		}
		wire, err := r.wireImage(proc, pkt, raw)
		if err != nil {
			r.metrics.ParseFailures.Add(1)
			return decision{}
		}
		r.metrics.Forwarded.Add(1)
		out.fwd.Inc()
		if r.trace.Sample() {
			// Queue delay is only measured for the sampled minority: the
			// hook reads the transport's per-wire busy horizon.
			var qd time.Duration
			if r.cfg.QueueDelay != nil {
				qd = r.cfg.QueueDelay(out.conn.LocalAddr(), out.remote)
			}
			r.tracePacket(telemetry.VerdictForwarded, inIf, egress, hopIdx, qd)
		}
		return decision{kind: kindForward, out: out, wire: wire, egress: egress, hopIdx: hopIdx, alert: alerted}
	}
}

// wireImage produces the outgoing bytes for pkt. On the fast path (the
// packet arrived on the wire) only the path pointers and SegID
// accumulators changed, so the received buffer is patched in place —
// zero copies, zero allocations. Router-originated packets (raw == nil)
// are serialized into the processor's reusable scratch buffer, which
// Send's copy-on-send semantics let us reuse immediately afterwards.
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

// deliverLocal resolves delivery of the packet to the destination end
// host over the intra-AS underlay: directly to the application's UDP
// port in dispatcherless mode, or to the shared dispatcher port. The
// returned decision carries the wire image and underlay destination;
// the caller emits it (or batches it into a burst).
func (r *Router) deliverLocal(proc *packetProcessor, pkt *slayers.Packet, raw []byte, inIf uint16) decision {
	port, ok := r.localPort(pkt)
	if !ok {
		r.metrics.NoRouteDrops.Add(1)
		if r.trace.Sample() {
			r.tracePacket(telemetry.VerdictNoRoute, inIf, 0, uint8(pkt.Hdr.Path.CurrHF), 0)
		}
		r.sendSCMPError(proc, pkt, raw, &slayers.SCMP{
			Type: slayers.SCMPDestinationUnreachable,
			Code: slayers.CodePortUnreach,
		})
		return decision{}
	}
	wire, err := r.wireImage(proc, pkt, raw)
	if err != nil {
		r.metrics.ParseFailures.Add(1)
		return decision{}
	}
	r.metrics.Delivered.Add(1)
	if r.trace.Sample() {
		r.tracePacket(telemetry.VerdictDelivered, inIf, 0, uint8(pkt.Hdr.Path.CurrHF), 0)
	}
	return decision{
		kind:   kindDeliver,
		wire:   wire,
		to:     netip.AddrPortFrom(pkt.Hdr.DstHost, port),
		hopIdx: uint8(pkt.Hdr.Path.CurrHF),
	}
}

// localPort determines the underlay port for local delivery.
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
			// port, parsed from the quote. The quote is truncated to
			// scmpQuoteLen bytes, so a strict decode would reject
			// errors quoting large packets — parse tolerantly, only as
			// far as the L4 ports require.
			var quoted slayers.Packet
			if err := quoted.DecodeTruncated(pkt.Payload); err != nil {
				return 0, false
			}
			if quoted.UDP != nil {
				return quoted.UDP.SrcPort, true
			}
			if quoted.SCMP != nil {
				return quoted.SCMP.Identifier, true
			}
			return 0, false
		}
	}
	return 0, false
}

// sendSCMPError originates an SCMP error back to the packet's source,
// quoting the offending packet. Errors are never sent in response to
// SCMP errors (ICMP's classic amplification guard).
func (r *Router) sendSCMPError(proc *packetProcessor, offending *slayers.Packet, raw []byte, scmp *slayers.SCMP) {
	if offending.SCMP != nil && offending.SCMP.Type.IsError() {
		return
	}
	rev, err := spath.ReverseFromCurrent(&offending.Hdr.Path)
	if err != nil {
		return
	}
	// Quote the offending packet as received when its wire image is at
	// hand; packets originated by this router are serialized first.
	quote := raw
	if quote == nil {
		quote, err = offending.Serialize(nil)
		if err != nil {
			return
		}
	}
	if len(quote) > scmpQuoteLen {
		quote = quote[:scmpQuoteLen]
	}
	reply := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA:   offending.Hdr.SrcIA,
			SrcIA:   r.cfg.IA,
			DstHost: offending.Hdr.SrcHost,
			SrcHost: r.conn.LocalAddr().Addr(),
			Path:    *rev,
		},
		SCMP:    scmp,
		Payload: quote,
	}
	r.metrics.SCMPSent.Add(1)
	r.inject(proc, reply)
}

// answerTraceroute responds to a router-alerted traceroute request.
func (r *Router) answerTraceroute(proc *packetProcessor, req *slayers.Packet, ifID uint16) {
	rev, err := spath.ReverseFromCurrent(&req.Hdr.Path)
	if err != nil {
		return
	}
	reply := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA:   req.Hdr.SrcIA,
			SrcIA:   r.cfg.IA,
			DstHost: req.Hdr.SrcHost,
			SrcHost: r.conn.LocalAddr().Addr(),
			Path:    *rev,
		},
		SCMP: &slayers.SCMP{
			Type:       slayers.SCMPTracerouteReply,
			Identifier: req.SCMP.Identifier,
			SeqNo:      req.SCMP.SeqNo,
			IA:         r.cfg.IA,
			IfID:       uint64(ifID),
		},
	}
	r.metrics.SCMPSent.Add(1)
	r.inject(proc, reply)
}

// inject runs a router-originated packet through the forwarding
// pipeline and emits the result. The packet has no wire image yet
// (raw == nil): if it leaves the router it is serialized into the
// processor's scratch buffer.
func (r *Router) inject(proc *packetProcessor, pkt *slayers.Packet) {
	r.emit(r.process(proc, pkt, nil, 0, originSelf))
}
