// Package sig implements the SCION-IP gateway: the component behind all
// of the paper's *non-native* production use cases ("all the productive
// use cases make use of IP-to-SCION-to-IP translation by SCION-IP-
// Gateways (SIG), such that applications are unaware of the NGN
// communication") and the Edge deployment model of Appendix B.1, where
// a participating AS becomes a logical extension of its provider by
// running only an edge appliance.
//
// A SIG attaches to the legacy IP side as a plain datagram endpoint (the
// tunnel ingress), matches each IP packet's destination against its
// prefix table, encapsulates it in SCION/UDP toward the remote SIG
// serving that prefix, and hands decapsulated traffic to local IP hosts
// on the far side. Applications keep using IP; the inter-domain leg
// rides SCION with everything that brings (path control, failover,
// MAC-verified forwarding).
package sig

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/pan"
	"sciera/internal/simnet"
)

// TunnelPort is the SCION/UDP port SIGs exchange encapsulated traffic on.
const TunnelPort = 30256

// frame is the encapsulation header: original IPv4-style src/dst
// addresses plus ports, followed by the payload. (The production SIG
// carries whole IP packets; the simulated legacy plane exchanges
// datagrams, so the header carries exactly the addressing the far side
// needs to re-emit them.)
var frameMagic = [4]byte{'S', 'I', 'G', '1'}

const frameHdrLen = 4 + 4 + 2 + 4 + 2

func encodeFrame(src, dst netip.AddrPort, payload []byte) ([]byte, error) {
	if !src.Addr().Is4() || !dst.Addr().Is4() {
		return nil, errors.New("sig: legacy plane is IPv4")
	}
	b := make([]byte, frameHdrLen+len(payload))
	copy(b[0:4], frameMagic[:])
	s4 := src.Addr().As4()
	d4 := dst.Addr().As4()
	copy(b[4:8], s4[:])
	binary.BigEndian.PutUint16(b[8:10], src.Port())
	copy(b[10:14], d4[:])
	binary.BigEndian.PutUint16(b[14:16], dst.Port())
	copy(b[frameHdrLen:], payload)
	return b, nil
}

func decodeFrame(b []byte) (src, dst netip.AddrPort, payload []byte, err error) {
	if len(b) < frameHdrLen || [4]byte(b[0:4]) != frameMagic {
		return src, dst, nil, errors.New("sig: not a tunnel frame")
	}
	src = netip.AddrPortFrom(netip.AddrFrom4([4]byte(b[4:8])), binary.BigEndian.Uint16(b[8:10]))
	dst = netip.AddrPortFrom(netip.AddrFrom4([4]byte(b[10:14])), binary.BigEndian.Uint16(b[14:16]))
	return src, dst, b[frameHdrLen:], nil
}

// route maps an IP prefix to the remote SIG serving it.
type route struct {
	prefix netip.Prefix
	remote addr.UDPAddr
}

// Metrics counts gateway activity.
type Metrics struct {
	Encapsulated atomic.Uint64
	Decapsulated atomic.Uint64
	NoRoute      atomic.Uint64
	Malformed    atomic.Uint64
}

// Gateway is one SIG instance.
type Gateway struct {
	// LocalIA is the AS this SIG serves.
	LocalIA addr.IA

	host   *pan.Host
	scion  *pan.Conn
	legacy simnet.Conn

	mu     sync.RWMutex
	routes []route
	// hosts maps local legacy IP addresses to their underlay endpoints
	// (the intra-AS delivery table; a production SIG just routes).
	hosts map[netip.Addr]netip.AddrPort

	metrics Metrics
}

// New starts a gateway: host is the AS's SCION environment, and the
// legacy side binds a datagram endpoint local IP applications send to.
// Both sides are handlers; neither runs a goroutine.
func New(host *pan.Host, transport simnet.Network) (*Gateway, error) {
	g := &Gateway{
		LocalIA: host.LocalIA(),
		host:    host,
		hosts:   make(map[netip.Addr]netip.AddrPort),
	}
	sc, err := host.ListenUDP(TunnelPort, pan.WithHandler(g.handleSCION))
	if err != nil {
		return nil, fmt.Errorf("sig: %w", err)
	}
	g.scion = sc
	legacy, err := transport.Listen(netip.AddrPort{}, g.handleLegacy)
	if err != nil {
		_ = sc.Close()
		return nil, fmt.Errorf("sig: %w", err)
	}
	g.legacy = legacy
	return g, nil
}

// LegacyAddr is the tunnel ingress address IP applications send to.
func (g *Gateway) LegacyAddr() netip.AddrPort { return g.legacy.LocalAddr() }

// SCIONAddr is the gateway's SCION address (what remote SIGs dial).
func (g *Gateway) SCIONAddr() addr.UDPAddr { return g.scion.LocalAddr() }

// Metrics exposes the counters.
func (g *Gateway) Metrics() *Metrics { return &g.metrics }

// Close stops the gateway.
func (g *Gateway) Close() error {
	_ = g.legacy.Close()
	return g.scion.Close()
}

// AddRoute announces that the given IP prefix is reachable via the
// remote SIG (longest prefix wins on lookup).
func (g *Gateway) AddRoute(prefix netip.Prefix, remote addr.UDPAddr) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.routes = append(g.routes, route{prefix: prefix, remote: remote})
	sort.Slice(g.routes, func(i, j int) bool {
		return g.routes[i].prefix.Bits() > g.routes[j].prefix.Bits()
	})
}

// RegisterHost maps a local legacy IP to its delivery endpoint, so
// decapsulated traffic reaches it.
func (g *Gateway) RegisterHost(ip netip.Addr, at netip.AddrPort) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hosts[ip] = at
}

// lookup returns the remote SIG for a destination IP.
func (g *Gateway) lookup(ip netip.Addr) (addr.UDPAddr, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, r := range g.routes {
		if r.prefix.Contains(ip) {
			return r.remote, true
		}
	}
	return addr.UDPAddr{}, false
}

// handleLegacy accepts one IP datagram at the tunnel ingress. The
// datagram must carry a frame header naming the logical IP source and
// destination (the simulated legacy plane's addressing); a production
// SIG reads the IP header instead. It is encapsulated toward the remote
// SIG over the shortest path, once the daemon has one: the lookup is
// asynchronous because a handler must not block.
func (g *Gateway) handleLegacy(pkt []byte, _ netip.AddrPort) {
	_, dst, _, err := decodeFrame(pkt)
	if err != nil {
		g.metrics.Malformed.Add(1)
		return
	}
	remote, ok := g.lookup(dst.Addr())
	if !ok {
		g.metrics.NoRoute.Add(1)
		return
	}
	frame := append([]byte(nil), pkt...)
	g.host.Daemon().PathsAsync(remote.IA, func(paths []*combinator.Path, err error) {
		if err == nil {
			if ordered := (pan.Shortest{}).Order(paths); len(ordered) > 0 {
				_, err = g.scion.WriteToVia(frame, remote, ordered[0])
			} else {
				err = pan.ErrNoPath
			}
		}
		if err != nil {
			g.metrics.NoRoute.Add(1)
			return
		}
		g.metrics.Encapsulated.Add(1)
	})
}

// handleSCION decapsulates tunnel traffic toward local hosts.
func (g *Gateway) handleSCION(_ *pan.Conn, msg pan.Message) {
	_, dst, _, err := decodeFrame(msg.Payload)
	if err != nil {
		g.metrics.Malformed.Add(1)
		return
	}
	g.mu.RLock()
	at, ok := g.hosts[dst.Addr()]
	g.mu.RUnlock()
	if !ok {
		g.metrics.NoRoute.Add(1)
		return
	}
	if err := g.legacy.Send(msg.Payload, at); err != nil {
		return
	}
	g.metrics.Decapsulated.Add(1)
}

// Client is a legacy IP application endpoint: it knows nothing about
// SCION, only its local SIG's tunnel ingress. Send/Recv move plain
// datagrams addressed by IP.
type Client struct {
	IP  netip.Addr
	sig netip.AddrPort

	conn simnet.Conn
	rq   *simnet.Inbox[[]byte]
}

// NewClient attaches a legacy host with the given IP, registering it at
// its local gateway.
func NewClient(transport simnet.Network, g *Gateway, ip netip.Addr) (*Client, error) {
	c := &Client{IP: ip, sig: g.LegacyAddr(), rq: simnet.NewInbox[[]byte](transport, 64)}
	conn, err := transport.Listen(netip.AddrPort{}, func(pkt []byte, _ netip.AddrPort) {
		c.rq.Put(append([]byte(nil), pkt...))
	})
	if err != nil {
		return nil, err
	}
	c.conn = conn
	g.RegisterHost(ip, conn.LocalAddr())
	return c, nil
}

// Send transmits payload to a remote IP endpoint through the SIG.
func (c *Client) Send(dst netip.AddrPort, payload []byte) error {
	frame, err := encodeFrame(netip.AddrPortFrom(c.IP, c.conn.LocalAddr().Port()), dst, payload)
	if err != nil {
		return err
	}
	return c.conn.Send(frame, c.sig)
}

// Recv waits on the transport for the next datagram, returning the
// logical IP source and the payload.
func (c *Client) Recv() (netip.AddrPort, []byte, error) {
	pkt, err := c.rq.Get(0)
	if err != nil {
		return netip.AddrPort{}, nil, fmt.Errorf("sig: client: %w", err)
	}
	src, _, payload, err := decodeFrame(pkt)
	if err != nil {
		return netip.AddrPort{}, nil, err
	}
	return src, payload, nil
}

// Close detaches the client.
func (c *Client) Close() error {
	c.rq.Close()
	return c.conn.Close()
}
