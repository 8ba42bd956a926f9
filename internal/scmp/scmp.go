// Package scmp implements SCMP echo clients and responders — the
// primitives behind `scion ping` and the scion-go-multiping measurement
// tool (Section 5.4). The pinger is callback-based so the discrete-event
// campaigns can run millions of probes deterministically; a blocking
// wrapper that waits on the transport covers interactive use.
package scmp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/simnet"
	"sciera/internal/slayers"
	"sciera/internal/spath"
)

// ErrTimeout reports a lost probe.
var ErrTimeout = errors.New("scmp: echo timed out")

// Pinger sends SCMP echo requests over explicit paths.
//
// A probe allocates its timeout and nothing else: the echo for a
// (destination, path) is serialised once and re-stamped per probe, the
// outstanding probes — pings and traceroute hops alike — are calls of
// one simnet.Calls keyed by sequence number, and replies decode into
// scratch the pinger owns.
type Pinger struct {
	LocalIA addr.IA
	// RouterAddr is the local border router's underlay address.
	RouterAddr netip.AddrPort

	net   simnet.Network
	conn  simnet.Conn
	calls *simnet.Calls[probe]

	mu sync.Mutex
	// echoes holds one serialised echo request per (destination, path
	// fingerprint); Ping stamps the sequence number into it under mu
	// and the transport copies it on send. Bounded by the paths the
	// topology offers: a refreshed path replaces the entry of the path
	// it supersedes.
	echoes map[echoKey]*echo

	// dec and quoted are handle's decode scratch (the transport runs a
	// conn's handler on one goroutine at a time).
	dec, quoted slayers.Packet
}

type echoKey struct {
	dst         addr.IA
	dstHost     netip.Addr
	fingerprint string
}

// echo is a serialised echo request, carrying the sequence number of
// the probe it was last sent as.
type echo struct {
	// path is the path raw was serialised from; paths are immutable
	// once published, so the pointer identifies the bytes.
	path  *combinator.Path
	raw   []byte
	l4Off int
}

// stamp writes seq into the echo. The identifier and the sequence
// number are one 32-bit word of the SCMP header, after its checksum.
func (e *echo) stamp(seq uint16) {
	id := binary.BigEndian.Uint16(e.raw[e.l4Off+4:])
	slayers.PatchUint32(e.raw, e.l4Off+2, e.l4Off+4, uint32(id)<<16|uint32(seq))
}

// probe is one outstanding exchange: a ping reports to echo, a
// traceroute hop to hop.
type probe struct {
	sentAt time.Time
	echo   func(time.Duration, error)
	hop    func(Hop)
}

// resolve ends the probe: a ping gets the RTT or the error, a
// traceroute hop records h, zero when the hop failed or timed out.
func (pr probe) resolve(h Hop, err error) {
	if pr.hop != nil {
		pr.hop(h)
		return
	}
	pr.echo(h.RTT, err)
}

// NewPinger binds a pinger inside the local AS.
func NewPinger(net simnet.Network, localIA addr.IA, routerAddr netip.AddrPort, local netip.AddrPort) (*Pinger, error) {
	p := &Pinger{
		LocalIA:    localIA,
		RouterAddr: routerAddr,
		net:        net,
		calls: simnet.NewCalls(net, 16, func(_ uint64, pr probe) {
			pr.resolve(Hop{}, ErrTimeout)
		}),
		echoes: make(map[echoKey]*echo),
	}
	conn, err := net.Listen(local, p.handle)
	if err != nil {
		return nil, err
	}
	p.conn = conn
	return p, nil
}

// Close releases the pinger socket.
func (p *Pinger) Close() error { return p.conn.Close() }

// Addr returns the pinger's underlay address.
func (p *Pinger) Addr() netip.AddrPort { return p.conn.LocalAddr() }

func (p *Pinger) handle(raw []byte, _ netip.AddrPort) {
	pkt := &p.dec
	if err := pkt.Decode(raw); err != nil {
		return
	}
	if pkt.SCMP == nil {
		return
	}
	switch pkt.SCMP.Type {
	case slayers.SCMPEchoReply, slayers.SCMPTracerouteReply:
		if pr, ok := p.calls.Take(uint64(pkt.SCMP.SeqNo)); ok {
			pr.resolve(Hop{IA: pkt.SCMP.IA, IfID: pkt.SCMP.IfID, RTT: p.net.Now().Sub(pr.sentAt)}, nil)
		}
	default:
		if !pkt.SCMP.Type.IsError() {
			return
		}
		// An SCMP error in response to one of our probes: fail the
		// matching probe immediately (identified via the quoted packet,
		// which routers may truncate — parse tolerantly).
		if err := p.quoted.DecodeTruncated(pkt.Payload); err != nil || p.quoted.SCMP == nil {
			return
		}
		if pr, ok := p.calls.Take(uint64(p.quoted.SCMP.SeqNo)); ok {
			pr.resolve(Hop{}, fmt.Errorf("scmp: %v from %v", pkt.SCMP.Type, pkt.Hdr.SrcIA))
		}
	}
}

// echoLocked returns the serialised echo for (dst, dstHost, path),
// serialising it on first use and whenever the path object changed.
func (p *Pinger) echoLocked(dst addr.IA, dstHost netip.Addr, path *combinator.Path) (*echo, error) {
	key := echoKey{dst: dst, dstHost: dstHost}
	if path != nil {
		key.fingerprint = path.Fingerprint
	}
	e := p.echoes[key]
	if e != nil && e.path == path {
		return e, nil
	}
	pkt := slayers.Packet{
		Hdr: slayers.SCION{
			DstIA:   dst,
			SrcIA:   p.LocalIA,
			DstHost: dstHost,
			SrcHost: p.conn.LocalAddr().Addr(),
		},
		SCMP: &slayers.SCMP{
			Type:       slayers.SCMPEchoRequest,
			Identifier: p.conn.LocalAddr().Port(),
		},
	}
	if path != nil {
		pkt.Hdr.Path = path.Raw // read, not retained: no copy needed
	}
	if e == nil {
		e = &echo{}
	}
	raw, err := pkt.Serialize(e.raw[:0])
	if err != nil {
		return nil, err
	}
	e.path, e.raw, e.l4Off = path, raw, slayers.CmnHdrLen+pkt.Hdr.Path.Len()
	p.echoes[key] = e
	return e, nil
}

// Ping sends one echo over the given path and calls cb exactly once
// with the measured RTT or an error. A nil path pings within the AS.
// The path must not be modified after it was first passed to Ping.
func (p *Pinger) Ping(dst addr.IA, dstHost netip.Addr, path *combinator.Path, timeout time.Duration, cb func(time.Duration, error)) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	p.mu.Lock()
	e, err := p.echoLocked(dst, dstHost, path)
	var seq uint64
	if err == nil {
		seq, err = p.calls.Start(probe{sentAt: p.net.Now(), echo: cb}, timeout)
	}
	if err != nil {
		p.mu.Unlock()
		cb(0, err)
		return
	}
	e.stamp(uint16(seq))
	// Sent under mu: e.raw is shared by every probe of this path until
	// the transport has copied it.
	err = p.conn.Send(e.raw, p.RouterAddr)
	p.mu.Unlock()
	if err != nil {
		if pr, ok := p.calls.Take(seq); ok {
			pr.resolve(Hop{}, err)
		}
	}
}

// PingSync is Ping waiting on the transport for its answer
// (simnet.Await).
func (p *Pinger) PingSync(dst addr.IA, dstHost netip.Addr, path *combinator.Path, timeout time.Duration) (rtt time.Duration, err error) {
	if werr := simnet.Await(p.net, func(done func()) {
		p.Ping(dst, dstHost, path, timeout, func(r time.Duration, e error) { rtt, err = r, e; done() })
	}); werr != nil {
		return 0, werr
	}
	return rtt, err
}

// Hop is one traceroute result.
type Hop struct {
	IA   addr.IA
	IfID uint64
	RTT  time.Duration
}

// Traceroute probes every AS hop of a path by sending one
// router-alerted request per hop (the `scion traceroute` mechanism:
// border routers answer requests whose current hop carries the router
// alert flag). The callback runs exactly once and receives the hops in
// order; a hop that timed out or drew an SCMP error appears with a zero
// IA and RTT.
func (p *Pinger) Traceroute(dst addr.IA, path *combinator.Path, timeout time.Duration, cb func([]Hop, error)) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	nHops := len(path.Raw.Hops)
	hops := make([]Hop, 0, nHops)
	var send func(i int)
	next := func(h Hop) {
		hops = append(hops, h)
		send(len(hops))
	}
	send = func(i int) {
		if i >= nHops {
			cb(hops, nil)
			return
		}
		seq, err := p.calls.Start(probe{sentAt: p.net.Now(), hop: next}, timeout)
		if err != nil {
			cb(hops, err)
			return
		}
		raw := *path.Raw.Copy()
		raw.Hops[i].RouterAlert = true
		pkt := &slayers.Packet{
			Hdr: slayers.SCION{
				DstIA:   dst,
				SrcIA:   p.LocalIA,
				DstHost: p.conn.LocalAddr().Addr(),
				SrcHost: p.conn.LocalAddr().Addr(),
				Path:    raw,
			},
			SCMP: &slayers.SCMP{
				Type:       slayers.SCMPTracerouteRequest,
				Identifier: p.conn.LocalAddr().Port(),
				SeqNo:      uint16(seq),
			},
		}
		out, err := pkt.Serialize(nil)
		if err == nil {
			err = p.conn.Send(out, p.RouterAddr)
		}
		if err != nil {
			if _, ok := p.calls.Take(seq); ok {
				cb(hops, err)
			}
		}
	}
	send(0)
}

// Responder answers SCMP echo requests — the piece deployed in every
// SCIERA AS so that "we also send ping messages to ASes where the tool
// is not deployed" works.
type Responder struct {
	LocalIA    addr.IA
	RouterAddr netip.AddrPort
	conn       simnet.Conn
	// Answered counts replies sent.
	mu       sync.Mutex
	answered uint64

	// Reused from request to request (the transport runs a conn's
	// handler on one goroutine at a time and copies on send): the
	// decoded request, the reply and its serialised form.
	dec   slayers.Packet
	reply slayers.Packet
	out   []byte
}

// NewResponder binds a responder at the given host address.
func NewResponder(net simnet.Network, localIA addr.IA, routerAddr netip.AddrPort, local netip.AddrPort) (*Responder, error) {
	r := &Responder{LocalIA: localIA, RouterAddr: routerAddr}
	conn, err := net.Listen(local, r.handle)
	if err != nil {
		return nil, err
	}
	r.conn = conn
	return r, nil
}

// Addr returns the responder's underlay address (the address to ping).
func (r *Responder) Addr() netip.AddrPort { return r.conn.LocalAddr() }

// Answered returns the number of echo replies sent.
func (r *Responder) Answered() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.answered
}

// Close stops the responder.
func (r *Responder) Close() error { return r.conn.Close() }

func (r *Responder) handle(raw []byte, _ netip.AddrPort) {
	pkt := &r.dec
	if err := pkt.Decode(raw); err != nil {
		return
	}
	if pkt.SCMP == nil || pkt.SCMP.Type != slayers.SCMPEchoRequest {
		return
	}
	out, err := EchoReply(r.out, &r.reply, pkt, r.LocalIA, r.conn.LocalAddr().Addr())
	if err != nil {
		return
	}
	r.out = out
	r.mu.Lock()
	r.answered++
	r.mu.Unlock()
	_ = r.conn.Send(out, r.RouterAddr) // an echo reply lost here is a lost probe at the pinger
}

// EchoReply serialises into out[:0] the answer to the echo request req
// from (ia, host): req's path reversed from its current hop, the
// endpoints swapped, and req's identifier, sequence number and payload.
// reply is the caller's scratch, reused from call to call.
func EchoReply(out []byte, reply, req *slayers.Packet, ia addr.IA, host netip.Addr) ([]byte, error) {
	h := &reply.Hdr
	if err := spath.ReverseFromCurrentInto(&h.Path, &req.Hdr.Path); err != nil {
		return out, err
	}
	h.DstIA, h.DstHost = req.Hdr.SrcIA, req.Hdr.SrcHost
	h.SrcIA, h.SrcHost = ia, host
	if reply.SCMP == nil {
		reply.SCMP = new(slayers.SCMP)
	}
	*reply.SCMP = slayers.SCMP{
		Type:       slayers.SCMPEchoReply,
		Identifier: req.SCMP.Identifier,
		SeqNo:      req.SCMP.SeqNo,
	}
	reply.Payload = req.Payload // aliases the request: serialised before we return
	return reply.Serialize(out[:0])
}
