// Package control implements the per-AS SCION control service: the
// path-segment lookup endpoint daemons query, the TRC/certificate
// distribution point, and the CA frontend for automated certificate
// renewal.
//
// Daemon-to-control-service RPC runs as JSON datagrams over the plain
// intra-AS IP underlay — the paper's "IP repurposed as a bridging layer"
// (Section 4.3.1): SCION is only mandatory across AS boundaries. The
// control service resolves core and down segments through the global
// path-server infrastructure (the beacon registry).
package control

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"sciera/internal/addr"
	"sciera/internal/beacon"
	"sciera/internal/ca"
	"sciera/internal/cppki"
	"sciera/internal/segment"
	"sciera/internal/simnet"
	"sciera/internal/telemetry"
)

// Request is a control-service RPC request.
type Request struct {
	ID   uint64   `json:"id"`
	Type string   `json:"type"` // "paths" | "trc" | "renew"
	Dst  addr.IA  `json:"dst,omitempty"`
	ISD  addr.ISD `json:"isd,omitempty"`
	CSR  []byte   `json:"csr,omitempty"`
	// Gen echoes the generation token of the requester's last "paths"
	// response for the same destination (0: none). When the serving
	// segment stores are unchanged, the service answers NotModified
	// instead of re-encoding every segment, and the daemon serves its
	// memoized combination.
	Gen uint64 `json:"gen,omitempty"`
}

// Response is a control-service RPC response.
type Response struct {
	ID    uint64 `json:"id"`
	Error string `json:"error,omitempty"`

	Ups   []json.RawMessage `json:"ups,omitempty"`
	Cores []json.RawMessage `json:"cores,omitempty"`
	Downs []json.RawMessage `json:"downs,omitempty"`

	// Gen is the generation token of the segment stores this "paths"
	// response was served from (beacon.Token.Gen, never 0). NotModified
	// reports that the stores still match the request's Gen; the segment
	// lists are omitted and the requester's cached combination remains
	// valid.
	Gen         uint64 `json:"gen,omitempty"`
	NotModified bool   `json:"not_modified,omitempty"`

	TRC []byte `json:"trc,omitempty"`

	ASCert []byte `json:"as_cert,omitempty"`
	CACert []byte `json:"ca_cert,omitempty"`
}

// Metrics counts what control services answer. One set of cells is
// shared by every service of a network, so the totals are network-wide.
type Metrics struct {
	// Paths, TRC, Renew and Unknown count decoded requests by type.
	Paths, TRC, Renew, Unknown telemetry.Counter
	// NotModified counts "paths" requests answered without segments.
	NotModified telemetry.Counter
	// Ups, Cores and Downs count segments encoded into "paths" answers.
	Ups, Cores, Downs telemetry.Counter
	// ResponseBytes counts reply bytes handed to the transport.
	ResponseBytes telemetry.Counter
}

// Register adopts the cells into a registry.
func (m *Metrics) Register(reg *telemetry.Registry) {
	requests := func(typ string, c *telemetry.Counter) {
		reg.RegisterCounter("sciera_control_requests_total", "control-service requests decoded, by type", c, telemetry.L("type", typ))
	}
	requests("paths", &m.Paths)
	requests("trc", &m.TRC)
	requests("renew", &m.Renew)
	requests("unknown", &m.Unknown)
	reg.RegisterCounter("sciera_control_not_modified_total", "paths requests answered NotModified (no segments encoded)", &m.NotModified)
	served := func(kind string, c *telemetry.Counter) {
		reg.RegisterCounter("sciera_control_segments_served_total", "segments encoded into paths answers, by kind", c, telemetry.L("kind", kind))
	}
	served("up", &m.Ups)
	served("core", &m.Cores)
	served("down", &m.Downs)
	reg.RegisterCounter("sciera_control_response_bytes_total", "reply bytes sent by control services", &m.ResponseBytes)
}

// Service is a control service instance for one AS.
type Service struct {
	IA addr.IA
	// Registry returns the current segment registry (live view of the
	// global path-server infrastructure).
	Registry func() *beacon.Registry
	// TRCs returns the store TRC requests are answered from, read per
	// request like the registry: what holds it may replace it.
	TRCs func() *cppki.Store
	// CA optionally enables certificate renewal (core ASes that run
	// the ISD CA).
	CA *ca.CA
	// Metrics receives the service's counters; nil allocates private ones.
	Metrics *Metrics

	conn simnet.Conn
}

// Start binds the service on the transport.
func (s *Service) Start(net simnet.Network, at netip.AddrPort) error {
	if s.Registry == nil {
		return errors.New("control: Registry required")
	}
	if s.Metrics == nil {
		s.Metrics = &Metrics{}
	}
	conn, err := net.Listen(at, s.handle)
	if err != nil {
		return fmt.Errorf("control %v: %w", s.IA, err)
	}
	s.conn = conn
	return nil
}

// Addr returns the service's underlay address.
func (s *Service) Addr() netip.AddrPort { return s.conn.LocalAddr() }

// Close stops the service.
func (s *Service) Close() error { return s.conn.Close() }

func (s *Service) handle(raw []byte, from netip.AddrPort) {
	var req Request
	if err := json.Unmarshal(raw, &req); err != nil {
		return // not a control request; ignore
	}
	resp := s.serve(&req)
	out, err := json.Marshal(resp)
	if err != nil {
		return
	}
	s.Metrics.ResponseBytes.Add(uint64(len(out)))
	_ = s.conn.Send(out, from)
}

func (s *Service) serve(req *Request) *Response {
	resp := &Response{ID: req.ID}
	switch req.Type {
	case "paths":
		s.Metrics.Paths.Inc()
		s.servePaths(req, resp)
	case "trc":
		s.Metrics.TRC.Inc()
		trc, ok := s.TRCs().Get(req.ISD)
		if !ok {
			resp.Error = fmt.Sprintf("no TRC for ISD %d", req.ISD)
			return resp
		}
		b, err := trc.Encode()
		if err != nil {
			resp.Error = err.Error()
			return resp
		}
		resp.TRC = b
	case "renew":
		s.Metrics.Renew.Inc()
		if s.CA == nil {
			resp.Error = "this control service runs no CA"
			return resp
		}
		chain, err := s.CA.Issue(req.CSR)
		if err != nil {
			resp.Error = err.Error()
			return resp
		}
		resp.ASCert = chain.AS.Raw
		resp.CACert = chain.CA.Raw
	default:
		s.Metrics.Unknown.Inc()
		resp.Error = fmt.Sprintf("unknown request type %q", req.Type)
	}
	return resp
}

// servePaths answers a lookup with the segments beacon.Registry.Lookup
// selects for (this AS, req.Dst): the requester's up segments, the down
// segments ending at the destination, and the core segments that can
// join the two (the local CS consults core CSes; in this in-process
// infrastructure the registry is that federation). A segment that fails
// to encode fails the request — a partial set would be combined and
// cached by the daemon as if it were complete.
func (s *Service) servePaths(req *Request, resp *Response) {
	reg := s.Registry()
	resp.Gen = reg.Token(s.IA).Gen()
	if req.Gen != 0 && req.Gen == resp.Gen {
		// The requester combined exactly these stores already.
		s.Metrics.NotModified.Inc()
		resp.NotModified = true
		return
	}
	ups, cores, downs := reg.Lookup(s.IA, req.Dst)
	var err error
	encode := func(segs []*segment.Segment) []json.RawMessage {
		out := make([]json.RawMessage, len(segs))
		for i, seg := range segs {
			b, e := seg.Encode()
			if e != nil && err == nil {
				err = fmt.Errorf("encoding segment %s: %w", seg.ID(), e)
			}
			out[i] = b
		}
		return out
	}
	resp.Ups, resp.Cores, resp.Downs = encode(ups), encode(cores), encode(downs)
	if err != nil {
		*resp = Response{ID: req.ID, Error: err.Error()}
		return
	}
	s.Metrics.Ups.Add(uint64(len(ups)))
	s.Metrics.Cores.Add(uint64(len(cores)))
	s.Metrics.Downs.Add(uint64(len(downs)))
}

// Client queries a control service; a caller that must block waits on
// the transport (simnet.Await).
type Client struct {
	Net simnet.Network
	// Server is the control service's underlay address.
	Server netip.AddrPort
	// Timeout bounds each request (default 2s).
	Timeout time.Duration

	conn  simnet.Conn
	calls *simnet.Calls[func(*Response, error)]
}

// NewClient creates a client bound to a fresh underlay port.
func NewClient(net simnet.Network, server netip.AddrPort, local netip.AddrPort) (*Client, error) {
	c := &Client{Net: net, Server: server, Timeout: 2 * time.Second}
	c.calls = simnet.NewCalls(net, 64, func(id uint64, cb func(*Response, error)) {
		cb(nil, fmt.Errorf("control: request %d to %v timed out", id, c.Server))
	})
	conn, err := net.Listen(local, c.handle)
	if err != nil {
		return nil, err
	}
	c.conn = conn
	return c, nil
}

// Close releases the client socket.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) handle(raw []byte, _ netip.AddrPort) {
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return
	}
	if cb, ok := c.calls.Take(resp.ID); ok {
		cb(&resp, nil)
	}
}

// Do sends a request and invokes cb exactly once with the response or
// an error. The request ID is the call's id (simnet.Calls): whoever
// takes the call — reply, timeout or send error — owns the callback.
func (c *Client) Do(req *Request, cb func(*Response, error)) {
	timeout := c.Timeout
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	id, err := c.calls.Start(cb, timeout)
	if err != nil {
		cb(nil, err)
		return
	}
	req.ID = id
	out, err := json.Marshal(req)
	if err == nil {
		err = c.conn.Send(out, c.Server)
	}
	if err != nil {
		if cb, ok := c.calls.Take(id); ok {
			cb(nil, err)
		}
	}
}

// DecodeSegments parses the raw segments of a response group.
func DecodeSegments(raw []json.RawMessage) ([]*segment.Segment, error) {
	out := make([]*segment.Segment, 0, len(raw))
	for _, b := range raw {
		s, err := segment.Decode(b)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
