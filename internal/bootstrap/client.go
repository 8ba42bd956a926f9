package bootstrap

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"sciera/internal/cppki"
	"sciera/internal/dns"
	"sciera/internal/simnet"
)

// Mechanism identifies a hint discovery mechanism (Appendix A).
type Mechanism int

const (
	MechDHCPVIVO Mechanism = iota
	MechDHCPOption72
	MechDHCPv6VSIO
	MechNDP // RA-provided resolver + DNS SRV
	MechDNSSRV
	MechDNSNAPTR
	MechDNSSD
	MechMDNS
	numMechanisms
)

func (m Mechanism) String() string {
	switch m {
	case MechDHCPVIVO:
		return "DHCP-VIVO"
	case MechDHCPOption72:
		return "DHCP-opt72"
	case MechDHCPv6VSIO:
		return "DHCPv6-VSIO"
	case MechNDP:
		return "IPv6-NDP"
	case MechDNSSRV:
		return "DNS-SRV"
	case MechDNSNAPTR:
		return "DNS-NAPTR"
	case MechDNSSD:
		return "DNS-SD"
	case MechMDNS:
		return "mDNS"
	default:
		return fmt.Sprintf("mechanism(%d)", int(m))
	}
}

// AllMechanisms lists every mechanism in client preference order.
func AllMechanisms() []Mechanism {
	out := make([]Mechanism, 0, numMechanisms)
	for m := Mechanism(0); m < numMechanisms; m++ {
		out = append(out, m)
	}
	return out
}

// Env is what the client knows about its attachment network before
// bootstrapping: almost nothing. Broadcast-based mechanisms need no
// configuration at all; DNS-based ones use the resolver and search
// domain the network pushed via DHCP/RAs (or a static fallback).
type Env struct {
	// DNSResolver is the network's resolver, when already known (e.g.
	// from a static config); MechNDP discovers it dynamically.
	DNSResolver netip.AddrPort
	// SearchDomain scopes DNS-based lookups.
	SearchDomain string
}

// Result is a completed bootstrap.
type Result struct {
	Mechanism Mechanism
	Hint      netip.AddrPort
	Topology  *TopologyFile
	TRC       *cppki.TRC
	// HintTime and FetchTime split the total as in Figure 4.
	HintTime, FetchTime time.Duration
}

// Client performs hint discovery and configuration fetch. All
// operations are asynchronous and single-shot, timed on the transport
// clock; a caller that must block waits on the transport (simnet.Await).
type Client struct {
	Env Env
	// Timeout bounds each network exchange (default 1s).
	Timeout time.Duration
	// AllowUnsigned accepts topologies without a verifiable signature
	// (out-of-band trust). Default false.
	AllowUnsigned bool

	net   simnet.Network
	conn  simnet.Conn
	calls *simnet.Calls[request]
}

// request is one outstanding exchange: its id is the request's
// DHCP/DHCPv6 XID or DNS ID, and match accepts the datagram that
// answers it.
type request struct {
	target netip.AddrPort
	match  func(pkt []byte, id uint16) bool
	cb     func([]byte, error)
}

// NewClient attaches a client at the given local address (zero for
// automatic).
func NewClient(net simnet.Network, local netip.AddrPort, env Env) (*Client, error) {
	c := &Client{
		Env:     env,
		Timeout: time.Second,
		net:     net,
		// 16 bits: a DNS ID is the narrowest id field a request carries.
		calls: simnet.NewCalls(net, 16, func(_ uint64, x request) {
			x.cb(nil, fmt.Errorf("bootstrap: exchange with %v timed out", x.target))
		}),
	}
	conn, err := net.Listen(local, c.handle)
	if err != nil {
		return nil, err
	}
	c.conn = conn
	return c, nil
}

// Close releases the client socket.
func (c *Client) Close() error { return c.conn.Close() }

// handle hands an inbound datagram to the oldest exchange it answers.
func (c *Client) handle(pkt []byte, _ netip.AddrPort) {
	if x, ok := c.calls.TakeFirst(func(id uint64, x request) bool { return x.match(pkt, uint16(id)) }); ok {
		x.cb(pkt, nil)
	}
}

// exchange sends target the request build makes for the call's id and
// calls cb exactly once: with the first datagram match accepts, or
// with an error.
func (c *Client) exchange(target netip.AddrPort, build func(id uint16) ([]byte, error), match func(pkt []byte, id uint16) bool, cb func([]byte, error)) {
	timeout := c.Timeout
	if timeout == 0 {
		timeout = time.Second
	}
	id, err := c.calls.Start(request{target: target, match: match, cb: cb}, timeout)
	if err != nil {
		cb(nil, err)
		return
	}
	req, err := build(uint16(id))
	if err == nil {
		err = c.conn.Send(req, target)
	}
	if err != nil {
		if x, ok := c.calls.Take(id); ok {
			x.cb(nil, err)
		}
	}
}

// broadcast returns the broadcast rendezvous for a well-known port.
func broadcast(port uint16) netip.AddrPort {
	return netip.AddrPortFrom(simnet.BroadcastAddr, port)
}

// Discover obtains the bootstrap-server hint via one mechanism.
func (c *Client) Discover(m Mechanism, cb func(netip.AddrPort, error)) {
	switch m {
	case MechDHCPVIVO, MechDHCPOption72:
		c.discoverDHCP(m, cb)
	case MechDHCPv6VSIO:
		c.discoverDHCPv6(cb)
	case MechNDP:
		c.discoverNDP(cb)
	case MechDNSSRV:
		c.discoverDNS(c.Env.DNSResolver, c.Env.SearchDomain, dns.TypeSRV, cb)
	case MechDNSNAPTR:
		c.discoverDNS(c.Env.DNSResolver, c.Env.SearchDomain, dns.TypeNAPTR, cb)
	case MechDNSSD:
		c.discoverDNS(c.Env.DNSResolver, c.Env.SearchDomain, dns.TypePTR, cb)
	case MechMDNS:
		c.discoverMDNS(cb)
	default:
		cb(netip.AddrPort{}, fmt.Errorf("bootstrap: unknown mechanism %v", m))
	}
}

func (c *Client) discoverDHCP(m Mechanism, cb func(netip.AddrPort, error)) {
	c.exchange(broadcast(PortDHCP), func(id uint16) ([]byte, error) {
		return (&DHCPMessage{Op: dhcpDiscover, XID: uint32(id), Options: map[uint8][]byte{}}).Encode(), nil
	}, func(pkt []byte, id uint16) bool {
		o, err := DecodeDHCP(pkt)
		return err == nil && o.Op == dhcpOffer && o.XID == uint32(id)
	}, func(pkt []byte, err error) {
		if err != nil {
			cb(netip.AddrPort{}, err)
			return
		}
		offer, _ := DecodeDHCP(pkt)
		if m == MechDHCPVIVO {
			if v, ok := offer.Options[OptVIVO]; ok {
				hint, err := DecodeVIVO(v)
				cb(hint, err)
				return
			}
			cb(netip.AddrPort{}, fmt.Errorf("%w: offer carries no VIVO", ErrNoHint))
			return
		}
		if v, ok := offer.Options[OptWWWServer]; ok && len(v) == 4 {
			cb(netip.AddrPortFrom(netip.AddrFrom4([4]byte(v)), PortBootstrap), nil)
			return
		}
		cb(netip.AddrPort{}, fmt.Errorf("%w: offer carries no option 72", ErrNoHint))
	})
}

func (c *Client) discoverDHCPv6(cb func(netip.AddrPort, error)) {
	c.exchange(broadcast(PortDHCPv6), func(id uint16) ([]byte, error) {
		return (&DHCPv6Message{Type: dhcp6Solicit, XID: uint32(id), Options: map[uint16][]byte{}}).Encode(), nil
	}, func(pkt []byte, id uint16) bool {
		a, err := DecodeDHCPv6(pkt)
		return err == nil && a.Type == dhcp6Advertise && a.XID == uint32(id)
	}, func(pkt []byte, err error) {
		if err != nil {
			cb(netip.AddrPort{}, err)
			return
		}
		adv, _ := DecodeDHCPv6(pkt)
		if v, ok := adv.Options[Opt6VSIO]; ok {
			hint, err := DecodeVIVO(v)
			cb(hint, err)
			return
		}
		cb(netip.AddrPort{}, fmt.Errorf("%w: advertise carries no VSIO", ErrNoHint))
	})
}

func (c *Client) discoverNDP(cb func(netip.AddrPort, error)) {
	c.exchange(broadcast(PortNDP), func(uint16) ([]byte, error) { return EncodeRS(), nil }, func(pkt []byte, _ uint16) bool {
		_, err := DecodeRA(pkt)
		return err == nil
	}, func(pkt []byte, err error) {
		if err != nil {
			cb(netip.AddrPort{}, err)
			return
		}
		ra, _ := DecodeRA(pkt)
		if len(ra.DNSServers) == 0 {
			cb(netip.AddrPort{}, fmt.Errorf("%w: RA without RDNSS", ErrNoHint))
			return
		}
		// Chain into a DNS SRV lookup via the advertised resolver.
		c.discoverDNS(ra.DNSServers[0], ra.SearchDomain, dns.TypeSRV, cb)
	})
}

func (c *Client) discoverMDNS(cb func(netip.AddrPort, error)) {
	c.dnsQuery(broadcast(PortMDNS), DiscoveryService+".local", dns.TypePTR, cb)
}

func (c *Client) discoverDNS(resolver netip.AddrPort, domain string, qtype uint16, cb func(netip.AddrPort, error)) {
	if !resolver.IsValid() {
		cb(netip.AddrPort{}, fmt.Errorf("%w: no DNS resolver configured", ErrNoHint))
		return
	}
	name := domain
	if qtype != dns.TypeNAPTR {
		name = DiscoveryService + "." + domain
	}
	c.dnsQuery(resolver, name, qtype, cb)
}

// dnsQuery performs one query and extracts the bootstrap hint from the
// answer set (following SRV targets and NAPTR replacements to their A
// records inside the same response).
func (c *Client) dnsQuery(resolver netip.AddrPort, name string, qtype uint16, cb func(netip.AddrPort, error)) {
	c.exchange(resolver, func(id uint16) ([]byte, error) {
		return (&dns.Message{ID: id, Questions: []dns.Question{{Name: name, Type: qtype, Class: dns.ClassIN}}}).Encode()
	}, func(pkt []byte, id uint16) bool {
		m, err := dns.Decode(pkt)
		return err == nil && m.Response && m.ID == id
	}, func(pkt []byte, err error) {
		if err != nil {
			cb(netip.AddrPort{}, err)
			return
		}
		m, _ := dns.Decode(pkt)
		hint, err := hintFromAnswers(m.Answers)
		cb(hint, err)
	})
}

// hintFromAnswers resolves PTR -> SRV -> A / NAPTR -> A chains within
// one answer set.
func hintFromAnswers(answers []dns.Record) (netip.AddrPort, error) {
	addrOf := func(host string) (netip.Addr, bool) {
		for _, r := range answers {
			if (r.Type == dns.TypeA || r.Type == dns.TypeAAAA) && strings.EqualFold(r.Name, host) {
				return r.A, true
			}
		}
		return netip.Addr{}, false
	}
	srvFor := func(name string) (dns.SRV, bool) {
		for _, r := range answers {
			if r.Type == dns.TypeSRV && (name == "" || strings.EqualFold(r.Name, name)) {
				return r.SRV, true
			}
		}
		return dns.SRV{}, false
	}
	// PTR chains to an instance SRV.
	for _, r := range answers {
		if r.Type == dns.TypePTR {
			if srv, ok := srvFor(r.PTR); ok {
				if a, ok := addrOf(srv.Target); ok {
					return netip.AddrPortFrom(a, srv.Port), nil
				}
			}
		}
	}
	// Direct SRV.
	if srv, ok := srvFor(""); ok {
		if a, ok := addrOf(srv.Target); ok {
			return netip.AddrPortFrom(a, srv.Port), nil
		}
	}
	// NAPTR with "A" flag.
	for _, r := range answers {
		if r.Type == dns.TypeNAPTR && strings.EqualFold(r.NAPTR.Service, NAPTRService) {
			if a, ok := addrOf(r.NAPTR.Replacement); ok {
				return netip.AddrPortFrom(a, PortBootstrap), nil
			}
		}
	}
	return netip.AddrPort{}, fmt.Errorf("%w: no usable records", ErrNoHint)
}

// Fetch retrieves and authenticates the AS configuration from a
// bootstrap server: the signed topology first (to learn the ISD), then
// the ISD TRC, then signature verification of the topology against the
// TRC.
func (c *Client) Fetch(server netip.AddrPort, cb func(*TopologyFile, *cppki.TRC, error)) {
	c.get(server, "/topology", func(body []byte, err error) {
		if err != nil {
			cb(nil, nil, err)
			return
		}
		msg, err := cppki.DecodeSignedMessage(body)
		if err != nil {
			cb(nil, nil, err)
			return
		}
		topo, err := DecodeTopology(msg.Payload)
		if err != nil {
			cb(nil, nil, err)
			return
		}
		c.get(server, "/trcs/isd"+strconv.Itoa(int(topo.IA.ISD())), func(trcBody []byte, err error) {
			if err != nil {
				cb(nil, nil, err)
				return
			}
			trc, err := cppki.DecodeTRC(trcBody)
			if err != nil {
				cb(nil, nil, err)
				return
			}
			now := c.net.Now()
			if err := trc.VerifyBase(now); err != nil {
				cb(nil, nil, fmt.Errorf("bootstrap: TRC rejected: %w", err))
				return
			}
			if len(msg.Signature) == 0 {
				if !c.AllowUnsigned {
					cb(nil, nil, fmt.Errorf("bootstrap: unsigned topology rejected"))
					return
				}
			} else if _, _, err := msg.Verify(trc, topo.IA, now); err != nil {
				cb(nil, nil, fmt.Errorf("bootstrap: topology signature invalid: %w", err))
				return
			}
			cb(topo, trc, nil)
		})
	})
}

// get performs one datagram GET.
func (c *Client) get(server netip.AddrPort, path string, cb func([]byte, error)) {
	req := []byte("GET " + path)
	c.exchange(server, func(uint16) ([]byte, error) { return req, nil }, func(pkt []byte, _ uint16) bool {
		// Status-prefixed responses to our paths; correlate loosely by
		// the known prefix (single outstanding GET per path).
		s := string(pkt)
		return len(s) > 4 && s[3] == ' '
	}, func(pkt []byte, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		status, body := string(pkt[:3]), pkt[4:]
		if status != "200" {
			cb(nil, fmt.Errorf("bootstrap: GET %s: status %s: %s", path, status, body))
			return
		}
		cb(body, nil)
	})
}

// Bootstrap walks the mechanisms in preference order until one yields a
// verified configuration (P1: zero user interaction, automatic
// fallback).
func (c *Client) Bootstrap(mechs []Mechanism, cb func(*Result, error)) {
	if len(mechs) == 0 {
		mechs = AllMechanisms()
	}
	start := c.net.Now()
	var try func(i int, lastErr error)
	try = func(i int, lastErr error) {
		if i >= len(mechs) {
			cb(nil, fmt.Errorf("bootstrap: all mechanisms failed, last: %w", lastErr))
			return
		}
		m := mechs[i]
		c.Discover(m, func(hint netip.AddrPort, err error) {
			if err != nil {
				try(i+1, err)
				return
			}
			hintDone := c.net.Now()
			c.Fetch(hint, func(topo *TopologyFile, trc *cppki.TRC, err error) {
				if err != nil {
					try(i+1, err)
					return
				}
				cb(&Result{
					Mechanism: m,
					Hint:      hint,
					Topology:  topo,
					TRC:       trc,
					HintTime:  hintDone.Sub(start),
					FetchTime: c.net.Now().Sub(hintDone),
				}, nil)
			})
		})
	}
	try(0, ErrNoHint)
}
