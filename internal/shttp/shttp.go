// Package shttp provides HTTP over SCION: an http.RoundTripper and a
// server that run the standard library's HTTP machinery over pan
// sockets, so existing web applications become SCION-native with a
// handful of changed lines — the property the paper's application
// enablement case study measures (Section 5.2: the bat CLI needed
// fewer than 20 lines).
//
// Requests and responses are carried in a lightweight datagram framing
// with fragmentation and whole-message retry (substituting for the
// QUIC session the production shttp uses, which is out of scope here;
// the application-facing API is the same shape).
package shttp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httputil"
	"strings"
	"sync"
	"time"

	"sciera/internal/addr"
	"sciera/internal/pan"
)

// Framing constants.
var frameMagic = [4]byte{'S', 'H', 'T', 'P'}

const (
	kindRequest  = 0
	kindResponse = 1
	// fragmentSize keeps frames well under the packet limit.
	fragmentSize = 16 * 1024
	frameHdrLen  = 4 + 4 + 1 + 2 + 2
)

// frame is one datagram of a fragmented message.
type frame struct {
	MsgID uint32
	Kind  uint8
	Frag  uint16
	Total uint16
	Data  []byte
}

func (f *frame) encode() []byte {
	b := make([]byte, frameHdrLen+len(f.Data))
	copy(b[0:4], frameMagic[:])
	binary.BigEndian.PutUint32(b[4:8], f.MsgID)
	b[8] = f.Kind
	binary.BigEndian.PutUint16(b[9:11], f.Frag)
	binary.BigEndian.PutUint16(b[11:13], f.Total)
	copy(b[frameHdrLen:], f.Data)
	return b
}

func decodeFrame(b []byte) (*frame, error) {
	if len(b) < frameHdrLen || [4]byte(b[0:4]) != frameMagic {
		return nil, errors.New("shttp: not a frame")
	}
	return &frame{
		MsgID: binary.BigEndian.Uint32(b[4:8]),
		Kind:  b[8],
		Frag:  binary.BigEndian.Uint16(b[9:11]),
		Total: binary.BigEndian.Uint16(b[11:13]),
		Data:  b[frameHdrLen:],
	}, nil
}

// fragment splits a message into frames.
func fragment(msgID uint32, kind uint8, data []byte) []*frame {
	total := (len(data) + fragmentSize - 1) / fragmentSize
	if total == 0 {
		total = 1
	}
	frames := make([]*frame, 0, total)
	for i := 0; i < total; i++ {
		lo := i * fragmentSize
		hi := lo + fragmentSize
		if hi > len(data) {
			hi = len(data)
		}
		frames = append(frames, &frame{
			MsgID: msgID, Kind: kind,
			Frag: uint16(i), Total: uint16(total),
			Data: data[lo:hi],
		})
	}
	return frames
}

// assembler reassembles fragmented messages. It belongs to one reader
// (a round trip, or a server's handler, which the transport runs on one
// goroutine at a time), so it takes no lock.
type assembler struct {
	msgs map[uint32][][]byte
}

func newAssembler() *assembler {
	return &assembler{msgs: make(map[uint32][][]byte)}
}

// add returns the complete message once all fragments arrived.
func (a *assembler) add(f *frame) ([]byte, bool) {
	parts, ok := a.msgs[f.MsgID]
	if !ok {
		parts = make([][]byte, f.Total)
		a.msgs[f.MsgID] = parts
	}
	if int(f.Frag) >= len(parts) {
		return nil, false
	}
	parts[f.Frag] = append([]byte(nil), f.Data...)
	for _, p := range parts {
		if p == nil {
			return nil, false
		}
	}
	delete(a.msgs, f.MsgID)
	return bytes.Join(parts, nil), true
}

// Transport is an http.RoundTripper sending requests over SCION. Use it
// as http.Client{Transport: shttp.NewTransport(host, policy)}.
type Transport struct {
	// Host is the process's SCION environment.
	Host *pan.Host
	// Policy selects paths (nil: shortest).
	Policy pan.Policy
	// Timeout bounds one round trip attempt (default 5s); two retries.
	Timeout time.Duration

	mu     sync.Mutex
	nextID uint32
}

// NewTransport builds a SCION HTTP transport; policy may be nil.
func NewTransport(host *pan.Host, policy pan.Policy) *Transport {
	return &Transport{Host: host, Policy: policy}
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	dst, err := ParseSCIONHost(req.URL.Host)
	if err != nil {
		return nil, fmt.Errorf("shttp: %w", err)
	}
	// DumpRequestOut renders the request in outgoing wire format
	// (including the body and Content-Length of client requests).
	raw, err := httputil.DumpRequestOut(req, true)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.nextID++
	msgID := t.nextID
	t.mu.Unlock()

	opts := []pan.Option{}
	if t.Policy != nil {
		opts = append(opts, pan.WithPolicy(t.Policy))
	}
	conn, err := t.Host.DialUDP(dst, opts...)
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	timeout := t.Timeout
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	asm := newAssembler()
	for attempt := 0; attempt < 3; attempt++ {
		for _, f := range fragment(msgID, kindRequest, raw) {
			if _, err := conn.Write(f.encode()); err != nil {
				return nil, err
			}
		}
		// The attempt's deadline is on the transport clock: reads wait
		// on the transport, so on the simulator they advance it.
		deadline := t.Host.Now().Add(timeout)
		for left := timeout; left > 0; left = deadline.Sub(t.Host.Now()) {
			payload, err := conn.ReadFromTimeout(left)
			if err != nil {
				break
			}
			f, err := decodeFrame(payload.Payload)
			if err != nil || f.Kind != kindResponse || f.MsgID != msgID {
				continue
			}
			if msg, done := asm.add(f); done {
				return http.ReadResponse(bufio.NewReader(bytes.NewReader(msg)), req)
			}
		}
	}
	return nil, fmt.Errorf("shttp: no response from %v", dst)
}

// Server serves an http.Handler over a pan socket. It is the socket's
// handler: a request is answered on the transport's event path as its
// last fragment arrives, so the http.Handler must not block.
type Server struct {
	Handler http.Handler
	conn    *pan.Conn
	asm     *assembler
}

// Serve starts serving on the given SCION port and returns immediately.
func Serve(host *pan.Host, port uint16, handler http.Handler) (*Server, error) {
	s := &Server{Handler: handler, asm: newAssembler()}
	conn, err := host.ListenUDP(port, pan.WithHandler(s.handle))
	if err != nil {
		return nil, err
	}
	s.conn = conn
	return s, nil
}

// Addr returns the server's SCION address.
func (s *Server) Addr() addr.UDPAddr { return s.conn.LocalAddr() }

// Close stops the server.
func (s *Server) Close() error { return s.conn.Close() }

// handle reassembles request fragments and answers a complete request.
func (s *Server) handle(conn *pan.Conn, msg pan.Message) {
	f, err := decodeFrame(msg.Payload)
	if err != nil || f.Kind != kindRequest {
		return
	}
	raw, done := s.asm.add(f)
	if !done {
		return
	}
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		return
	}
	req.RemoteAddr = msg.From.String()
	rec := newRecorder()
	s.Handler.ServeHTTP(rec, req)
	respBytes, err := rec.dump()
	if err != nil {
		return
	}
	for _, out := range fragment(f.MsgID, kindResponse, respBytes) {
		if _, err := conn.WriteTo(out.encode(), msg.From); err != nil {
			return
		}
	}
}

// recorder captures a handler's response.
type recorder struct {
	status int
	hdr    http.Header
	body   bytes.Buffer
}

func newRecorder() *recorder {
	return &recorder{status: http.StatusOK, hdr: make(http.Header)}
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(code int)        { r.status = code }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }

func (r *recorder) dump() ([]byte, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "HTTP/1.1 %d %s\r\n", r.status, http.StatusText(r.status))
	if r.hdr.Get("Content-Type") == "" {
		r.hdr.Set("Content-Type", "text/plain; charset=utf-8")
	}
	r.hdr.Set("Content-Length", fmt.Sprint(r.body.Len()))
	if err := r.hdr.Write(&buf); err != nil {
		return nil, err
	}
	buf.WriteString("\r\n")
	buf.Write(r.body.Bytes())
	return buf.Bytes(), nil
}

// MangleSCIONAddrURL rewrites a URL containing a SCION authority
// ("http://71-2:0:3b,10.0.0.7:8080/x") into a parseable form; the
// transport understands both. This mirrors the helper the bat diff uses
// (Appendix E).
func MangleSCIONAddrURL(u string) string {
	scheme, rest, ok := strings.Cut(u, "://")
	if !ok {
		return u
	}
	slash := strings.Index(rest, "/")
	hostPart := rest
	tail := ""
	if slash >= 0 {
		hostPart, tail = rest[:slash], rest[slash:]
	}
	if !strings.Contains(hostPart, ",") {
		return u
	}
	mangled := strings.NewReplacer(",", "__", ":", "_", "[", "", "]", "").Replace(hostPart)
	return scheme + "://" + mangled + tail
}

// ParseSCIONHost parses either the native ("71-10,10.0.0.7:8080") or
// mangled ("71-10__10.0.0.7_8080") authority form.
func ParseSCIONHost(host string) (addr.UDPAddr, error) {
	if strings.Contains(host, ",") {
		return addr.ParseUDPAddr(host)
	}
	if strings.Contains(host, "__") {
		parts := strings.SplitN(host, "__", 2)
		ia := strings.ReplaceAll(parts[0], "_", ":")
		hp := parts[1]
		i := strings.LastIndex(hp, "_")
		if i < 0 {
			return addr.UDPAddr{}, fmt.Errorf("mangled host %q missing port", host)
		}
		return addr.ParseUDPAddr(ia + "," + hp[:i] + ":" + hp[i+1:])
	}
	return addr.UDPAddr{}, fmt.Errorf("host %q is not a SCION address", host)
}
