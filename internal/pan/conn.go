package pan

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/dispatcher"
	"sciera/internal/simnet"
	"sciera/internal/slayers"
	"sciera/internal/spath"
)

// addrIA aliases addr.IA for the host file.
type addrIA = addr.IA

// Message is one received datagram with its source address.
type Message struct {
	Payload []byte
	From    addr.UDPAddr
}

// Errors.
var (
	ErrNoPath   = errors.New("pan: no path to destination")
	ErrClosed   = errors.New("pan: connection closed")
	ErrDeadline = errors.New("pan: read deadline exceeded")
)

// Conn is a SCION/UDP socket: a drop-in replacement for a UDP
// net.PacketConn that transparently handles the IP-UDP layer-2.5
// encapsulation, path lookup and path selection (Section 4.2.2).
type Conn struct {
	host   *Host
	conn   simnet.Conn
	policy Policy
	disp   *dispatcher.Dispatcher

	local addr.UDPAddr

	mu sync.Mutex
	// replyPaths remembers the reversed path of the last packet
	// received from each remote, so servers answer without lookups.
	replyPaths map[addr.UDPAddr]*spath.Path
	// downPaths records fingerprints SCMP declared broken.
	downPaths map[string]time.Time
	recvq     chan Message
	closed    bool
	scmpSeq   uint16
	// OnSCMPError, when set, observes SCMP errors delivered to this
	// socket (after the selector has processed them).
	OnSCMPError func(scmp *slayers.SCMP)
}

// Option configures a socket.
type Option func(*Conn)

// WithPolicy sets the path selection policy (default Shortest).
func WithPolicy(p Policy) Option { return func(c *Conn) { c.policy = p } }

// WithDispatcher routes the socket's inbound traffic through the
// legacy shared dispatcher instead of binding its own underlay port for
// SCION traffic (Section 4.8's historical mode).
func WithDispatcher(d *dispatcher.Dispatcher) Option { return func(c *Conn) { c.disp = d } }

// ListenUDP opens a socket on the given SCION port (0 for ephemeral).
func (h *Host) ListenUDP(port uint16, opts ...Option) (*Conn, error) {
	c := &Conn{
		host:       h,
		policy:     Shortest{},
		replyPaths: make(map[addr.UDPAddr]*spath.Path),
		downPaths:  make(map[string]time.Time),
		recvq:      make(chan Message, 256),
	}
	for _, o := range opts {
		o(c)
	}
	// Dispatcherless sockets with an explicit SCION port bind that
	// underlay port directly — the defining property of the
	// dispatcherless architecture (Section 4.8). Dispatcher-routed and
	// ephemeral sockets take any port.
	bind := netip.AddrPort{}
	if port != 0 && c.disp == nil {
		bind = netip.AddrPortFrom(netip.Addr{}, port)
	}
	conn, err := h.net.Listen(bind, c.handle)
	if err != nil {
		return nil, err
	}
	c.conn = conn
	scionPort := port
	if scionPort == 0 {
		scionPort = conn.LocalAddr().Port()
	}
	c.local = addr.UDPAddr{
		IA:   h.d.LocalIA(),
		Host: netip.AddrPortFrom(conn.LocalAddr().Addr(), scionPort),
	}
	if c.disp != nil {
		// Dispatcher mode: the socket's SCION address is the
		// dispatcher host's; inbound traffic lands on the shared port
		// and is demultiplexed to our private underlay socket.
		c.local.Host = netip.AddrPortFrom(c.disp.Addr().Addr(), scionPort)
		if err := c.disp.Register(scionPort, conn.LocalAddr()); err != nil {
			_ = conn.Close()
			return nil, err
		}
	}
	return c, nil
}

// DialUDP opens a socket bound to a remote address. Reads only accept
// that peer; writes may omit the destination.
func (h *Host) DialUDP(remote addr.UDPAddr, opts ...Option) (*DialedConn, error) {
	c, err := h.ListenUDP(0, opts...)
	if err != nil {
		return nil, err
	}
	return &DialedConn{Conn: c, remote: remote}, nil
}

// LocalAddr returns the socket's SCION address.
func (c *Conn) LocalAddr() addr.UDPAddr { return c.local }

// Close releases the socket.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.closed = true
	close(c.recvq)
	c.mu.Unlock()
	if c.disp != nil {
		c.disp.Unregister(c.local.Host.Port())
	}
	return c.conn.Close()
}

// handle processes one underlay datagram addressed to this socket.
func (c *Conn) handle(raw []byte, from netip.AddrPort) {
	var pkt slayers.Packet
	if err := pkt.Decode(raw); err != nil {
		return
	}
	switch {
	case pkt.UDP != nil:
		c.handleUDP(&pkt)
	case pkt.SCMP != nil:
		c.handleSCMP(&pkt)
	}
}

func (c *Conn) handleUDP(pkt *slayers.Packet) {
	src := addr.UDPAddr{
		IA:   pkt.Hdr.SrcIA,
		Host: netip.AddrPortFrom(pkt.Hdr.SrcHost, pkt.UDP.SrcPort),
	}
	// Remember the reply path (reverse of the received, in-flight
	// mutated path).
	if rev, err := spath.ReverseFromCurrent(&pkt.Hdr.Path); err == nil {
		c.mu.Lock()
		c.replyPaths[src] = rev
		c.mu.Unlock()
	}
	msg := Message{Payload: append([]byte(nil), pkt.Payload...), From: src}
	// Close closes recvq under c.mu, so the closed check and the send
	// must share one critical section; the send never blocks.
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	select {
	case c.recvq <- msg:
	default: // receive queue full: drop, as UDP would
	}
}

func (c *Conn) handleSCMP(pkt *slayers.Packet) {
	scmp := pkt.SCMP
	switch scmp.Type {
	case slayers.SCMPEchoRequest:
		// The end-host stack answers echos addressed to it.
		rev, err := spath.ReverseFromCurrent(&pkt.Hdr.Path)
		if err != nil {
			return
		}
		reply := &slayers.Packet{
			Hdr: slayers.SCION{
				DstIA:   pkt.Hdr.SrcIA,
				SrcIA:   c.local.IA,
				DstHost: pkt.Hdr.SrcHost,
				SrcHost: c.local.Host.Addr(),
				Path:    *rev,
			},
			SCMP: &slayers.SCMP{
				Type:       slayers.SCMPEchoReply,
				Identifier: scmp.Identifier,
				SeqNo:      scmp.SeqNo,
			},
			Payload: append([]byte(nil), pkt.Payload...),
		}
		raw, err := reply.Serialize(nil)
		if err != nil {
			return
		}
		_ = c.conn.Send(raw, c.host.d.Info().RouterAddr)
	case slayers.SCMPExternalInterfaceDown, slayers.SCMPInternalConnectivityDown:
		// Path revocation: flush lookup caches so the next write
		// re-selects (instant failover, Section 4.7).
		c.host.d.FlushCache()
		c.mu.Lock()
		cb := c.OnSCMPError
		c.mu.Unlock()
		if cb != nil {
			cb(scmp)
		}
	default:
		if scmp.Type.IsError() {
			c.mu.Lock()
			cb := c.OnSCMPError
			c.mu.Unlock()
			if cb != nil {
				cb(scmp)
			}
		}
	}
}

// WriteTo sends payload to dst, selecting a path with the socket's
// policy (or replying over the remembered reverse path when no
// forward path is known — the server case).
func (c *Conn) WriteTo(payload []byte, dst addr.UDPAddr) (int, error) {
	return c.writeVia(payload, dst, nil)
}

// WriteToVia sends over an explicit path (the "path-aware" API).
func (c *Conn) WriteToVia(payload []byte, dst addr.UDPAddr, path *combinator.Path) (int, error) {
	return c.writeVia(payload, dst, path)
}

func (c *Conn) writeVia(payload []byte, dst addr.UDPAddr, path *combinator.Path) (int, error) {
	var raw spath.Path
	switch {
	case path != nil:
		raw = *path.Raw.Copy()
	case dst.IA == c.local.IA:
		// AS-internal: empty path.
	default:
		// Prefer the remembered reverse path of traffic we received
		// from this peer: servers answer clients without performing a
		// path lookup of their own.
		c.mu.Lock()
		rev, ok := c.replyPaths[dst]
		c.mu.Unlock()
		if ok {
			raw = *rev.Copy()
			break
		}
		p, err := c.selectPath(dst.IA)
		if err != nil {
			return 0, err
		}
		raw = *p.Raw.Copy()
	}

	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA:   dst.IA,
			SrcIA:   c.local.IA,
			DstHost: dst.Host.Addr(),
			SrcHost: c.local.Host.Addr(),
			Path:    raw,
		},
		UDP: &slayers.UDP{
			SrcPort: c.local.Host.Port(),
			DstPort: dst.Host.Port(),
		},
		Payload: payload,
	}
	out, err := pkt.Serialize(nil)
	if err != nil {
		return 0, err
	}
	if err := c.conn.Send(out, c.host.d.Info().RouterAddr); err != nil {
		return 0, err
	}
	return len(payload), nil
}

// selectPath runs the policy over the daemon's paths.
func (c *Conn) selectPath(dst addr.IA) (*combinator.Path, error) {
	paths, err := c.host.d.Paths(dst)
	if err != nil {
		return nil, err
	}
	ordered := c.policy.Order(paths)
	if len(ordered) == 0 {
		return nil, fmt.Errorf("%w: %v (policy %s)", ErrNoPath, dst, c.policy.Name())
	}
	return ordered[0], nil
}

// Paths exposes the policy-ordered candidate paths (for path-aware
// applications and CLI tools).
func (c *Conn) Paths(dst addr.IA) ([]*combinator.Path, error) {
	paths, err := c.host.d.Paths(dst)
	if err != nil {
		return nil, err
	}
	return c.policy.Order(paths), nil
}

// ReadFrom blocks for the next datagram (transport must be driven
// independently; see simnet.Sim.RunLive).
func (c *Conn) ReadFrom() (Message, error) {
	msg, ok := <-c.recvq
	if !ok {
		return Message{}, ErrClosed
	}
	return msg, nil
}

// ReadFromTimeout is ReadFrom with a wall-clock deadline.
func (c *Conn) ReadFromTimeout(d time.Duration) (Message, error) {
	select {
	case msg, ok := <-c.recvq:
		if !ok {
			return Message{}, ErrClosed
		}
		return msg, nil
	case <-time.After(d):
		return Message{}, ErrDeadline
	}
}

// DialedConn is a Conn bound to one remote.
type DialedConn struct {
	*Conn
	remote addr.UDPAddr
}

// RemoteAddr returns the dialed peer.
func (c *DialedConn) RemoteAddr() addr.UDPAddr { return c.remote }

// Write sends to the dialed peer.
func (c *DialedConn) Write(payload []byte) (int, error) {
	return c.WriteTo(payload, c.remote)
}

// Read blocks for the next datagram from the dialed peer, discarding
// others.
func (c *DialedConn) Read() ([]byte, error) {
	for {
		msg, err := c.ReadFrom()
		if err != nil {
			return nil, err
		}
		if msg.From == c.remote {
			return msg.Payload, nil
		}
	}
}
