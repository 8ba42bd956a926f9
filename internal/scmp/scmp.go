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
// outstanding probes live in a ring indexed by sequence number, and
// replies decode into scratch the pinger owns.
type Pinger struct {
	LocalIA addr.IA
	// RouterAddr is the local border router's underlay address.
	RouterAddr netip.AddrPort

	net  simnet.Network
	conn simnet.Conn

	mu      sync.Mutex
	nextSeq uint16
	// echoes holds one serialised echo request per (destination, path
	// fingerprint); Ping stamps the sequence number into it under mu
	// and the transport copies it on send. Bounded by the paths the
	// topology offers: a refreshed path replaces the entry of the path
	// it supersedes.
	echoes map[echoKey]*echo
	// ring holds the outstanding echo probes, indexed by sequence
	// number modulo its power-of-two length. It doubles when every
	// slot is taken, so it is sized by what is outstanding at once.
	ring         []probe
	outstanding  int
	tracePending map[uint16]func(addr.IA, uint64)

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

// probe is one ring slot.
type probe struct {
	live   bool
	seq    uint16
	sentAt time.Time
	cb     func(time.Duration, error)
	cancel func() // disarms the timeout
}

const (
	minRing = 16
	maxRing = 1 << 16 // the sequence number space
)

// NewPinger binds a pinger inside the local AS.
func NewPinger(net simnet.Network, localIA addr.IA, routerAddr netip.AddrPort, local netip.AddrPort) (*Pinger, error) {
	p := &Pinger{
		LocalIA:      localIA,
		RouterAddr:   routerAddr,
		net:          net,
		echoes:       make(map[echoKey]*echo),
		ring:         make([]probe, minRing),
		tracePending: make(map[uint16]func(addr.IA, uint64)),
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
	case slayers.SCMPTracerouteReply:
		p.mu.Lock()
		cb := p.tracePending[pkt.SCMP.SeqNo]
		delete(p.tracePending, pkt.SCMP.SeqNo)
		p.mu.Unlock()
		if cb != nil {
			cb(pkt.SCMP.IA, pkt.SCMP.IfID)
		}
	case slayers.SCMPEchoReply:
		if pr, ok := p.take(pkt.SCMP.SeqNo); ok {
			pr.cb(p.net.Now().Sub(pr.sentAt), nil)
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
		if pr, ok := p.take(p.quoted.SCMP.SeqNo); ok {
			pr.cb(0, fmt.Errorf("scmp: %v from %v", pkt.SCMP.Type, pkt.Hdr.SrcIA))
		}
	}
}

// take frees seq's ring slot and disarms its timeout, returning the
// probe that held it. Whoever takes the slot owns the probe's one
// callback; ok is false when seq is not outstanding.
func (p *Pinger) take(seq uint16) (pr probe, ok bool) {
	p.mu.Lock()
	slot := &p.ring[int(seq)&(len(p.ring)-1)]
	if slot.live && slot.seq == seq {
		pr, ok = *slot, true
		*slot = probe{}
		p.outstanding--
	}
	p.mu.Unlock()
	if ok && pr.cancel != nil {
		pr.cancel()
	}
	return pr, ok
}

// allocLocked claims the ring slot of the next free sequence number; it
// fails when all 65,536 are outstanding.
func (p *Pinger) allocLocked() (*probe, error) {
	if p.outstanding == len(p.ring) {
		if len(p.ring) == maxRing {
			return nil, errors.New("scmp: every sequence number is outstanding")
		}
		old := p.ring
		p.ring = make([]probe, 2*len(old))
		for _, pr := range old {
			p.ring[int(pr.seq)&(len(p.ring)-1)] = pr
		}
	}
	// A slot still held by an older probe (a straggler a whole ring
	// behind) is skipped: its sequence number's turn passes.
	for {
		p.nextSeq++
		slot := &p.ring[int(p.nextSeq)&(len(p.ring)-1)]
		if !slot.live {
			slot.live, slot.seq = true, p.nextSeq
			p.outstanding++
			return slot, nil
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

// stampSeq writes the echo's sequence number and repairs the SCMP
// checksum incrementally (RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m')), as
// traffic.patchSeq does for flows. Both fields sit at even offsets of
// an even-length header, so the patch covers exactly one checksum word.
func stampSeq(raw []byte, l4Off int, seq uint16) {
	csumOff, seqOff := l4Off+2, l4Off+6
	old := binary.BigEndian.Uint16(raw[seqOff:])
	binary.BigEndian.PutUint16(raw[seqOff:], seq)
	sum := uint32(^binary.BigEndian.Uint16(raw[csumOff:])) + uint32(^old) + uint32(seq)
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	binary.BigEndian.PutUint16(raw[csumOff:], ^uint16(sum))
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
	var slot *probe
	if err == nil {
		slot, err = p.allocLocked()
	}
	if err != nil {
		p.mu.Unlock()
		cb(0, err)
		return
	}
	seq := slot.seq
	slot.cb, slot.sentAt = cb, p.net.Now()
	slot.cancel = p.net.AfterFunc(timeout, func() {
		if pr, ok := p.take(seq); ok {
			pr.cb(0, ErrTimeout)
		}
	})
	stampSeq(e.raw, e.l4Off, seq)
	// Sent under mu: e.raw is shared by every probe of this path until
	// the transport has copied it.
	err = p.conn.Send(e.raw, p.RouterAddr)
	p.mu.Unlock()
	if err != nil {
		if pr, ok := p.take(seq); ok {
			pr.cb(0, err)
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
// order; failed probes appear with a zero IA.
func (p *Pinger) Traceroute(dst addr.IA, path *combinator.Path, timeout time.Duration, cb func([]Hop, error)) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	nHops := len(path.Raw.Hops)
	hops := make([]Hop, 0, nHops)
	var probe func(i int)
	probe = func(i int) {
		if i >= nHops {
			cb(hops, nil)
			return
		}
		raw := *path.Raw.Copy()
		raw.Hops[i].RouterAlert = true

		p.mu.Lock()
		p.nextSeq++
		seq := p.nextSeq
		p.mu.Unlock()
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
				SeqNo:      seq,
			},
		}
		out, err := pkt.Serialize(nil)
		if err != nil {
			cb(hops, err)
			return
		}

		// Reply, timeout and send error race for the probe; the first
		// to get here unregisters it, the rest find once spent. cancel
		// is set and read under p.mu.
		var once sync.Once
		var cancel func()
		sentAt := p.net.Now()
		finish := func(hop Hop, err error) {
			once.Do(func() {
				p.mu.Lock()
				delete(p.tracePending, seq)
				disarm := cancel
				p.mu.Unlock()
				if disarm != nil {
					disarm()
				}
				if err != nil {
					cb(hops, err)
					return
				}
				hops = append(hops, hop)
				probe(i + 1)
			})
		}
		p.mu.Lock()
		p.tracePending[seq] = func(ia addr.IA, ifID uint64) {
			finish(Hop{IA: ia, IfID: ifID, RTT: p.net.Now().Sub(sentAt)}, nil)
		}
		cancel = p.net.AfterFunc(timeout, func() {
			finish(Hop{}, nil) // unanswered hop
		})
		p.mu.Unlock()
		if err := p.conn.Send(out, p.RouterAddr); err != nil {
			finish(Hop{}, err)
		}
	}
	probe(0)
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
	scmp  slayers.SCMP
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
	h := &r.reply.Hdr
	if err := spath.ReverseFromCurrentInto(&h.Path, &pkt.Hdr.Path); err != nil {
		return
	}
	h.DstIA, h.DstHost = pkt.Hdr.SrcIA, pkt.Hdr.SrcHost
	h.SrcIA, h.SrcHost = r.LocalIA, r.conn.LocalAddr().Addr()
	r.scmp = slayers.SCMP{
		Type:       slayers.SCMPEchoReply,
		Identifier: pkt.SCMP.Identifier,
		SeqNo:      pkt.SCMP.SeqNo,
	}
	r.reply.SCMP = &r.scmp
	r.reply.Payload = pkt.Payload // aliases raw: serialised before we return
	out, err := r.reply.Serialize(r.out[:0])
	if err != nil {
		return
	}
	r.out = out
	r.mu.Lock()
	r.answered++
	r.mu.Unlock()
	_ = r.conn.Send(out, r.RouterAddr) // an echo reply lost here is a lost probe at the pinger
}
