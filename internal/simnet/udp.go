package simnet

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"
)

// UDPNet implements Network over real UDP sockets on the loopback
// interface — the authentic IP-UDP "layer 2.5" underlay. Packets really
// cross the kernel's network stack, so firewalls, ports and datagram
// semantics behave as in a deployment.
type UDPNet struct {
	mu    sync.Mutex
	conns []*udpConn
}

// NewUDPNet creates a loopback transport.
func NewUDPNet() *UDPNet { return &UDPNet{} }

// Listen implements Network. A preferred address with a zero port (or a
// zero AddrPort) binds an ephemeral loopback port.
func (n *UDPNet) Listen(preferred netip.AddrPort, h Handler) (Conn, error) {
	la := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: int(preferred.Port())}
	if preferred.Addr().IsValid() {
		la.IP = preferred.Addr().AsSlice()
	}
	uc, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, fmt.Errorf("simnet: %w", err)
	}
	c := &udpConn{uc: uc, done: make(chan struct{})}
	n.mu.Lock()
	n.conns = append(n.conns, c)
	n.mu.Unlock()
	go c.readLoop(h)
	return c, nil
}

// ListenBatch implements Network. Real sockets surface one datagram per
// read, so batches always have size one; the wrapping slices are reused
// across calls (safe: one read goroutine per conn).
func (n *UDPNet) ListenBatch(preferred netip.AddrPort, h BatchHandler) (Conn, error) {
	pkts := make([][]byte, 1)
	froms := make([]netip.AddrPort, 1)
	return n.Listen(preferred, func(pkt []byte, from netip.AddrPort) {
		pkts[0], froms[0] = pkt, from
		h(pkts, froms)
	})
}

// Now implements Network.
func (n *UDPNet) Now() time.Time { return time.Now() }

// AfterFunc implements Network.
func (n *UDPNet) AfterFunc(d time.Duration, f func()) func() {
	t := time.AfterFunc(d, f)
	return func() { t.Stop() }
}

// Wait implements Network: real sockets and timers run on their own
// goroutines, so waiting is plain blocking.
func (n *UDPNet) Wait(done <-chan struct{}) bool {
	<-done
	return true
}

// Close shuts down every conn created through this transport.
func (n *UDPNet) Close() error {
	n.mu.Lock()
	conns := append([]*udpConn(nil), n.conns...)
	n.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	return nil
}

type udpConn struct {
	uc     *net.UDPConn
	done   chan struct{}
	closed sync.Once
}

func (c *udpConn) LocalAddr() netip.AddrPort {
	return c.uc.LocalAddr().(*net.UDPAddr).AddrPort()
}

func (c *udpConn) Send(pkt []byte, to netip.AddrPort) error {
	_, err := c.uc.WriteToUDPAddrPort(pkt, to)
	return err
}

// SendBatch implements Conn. The kernel offers no sendmmsg through this
// API surface, so the burst degenerates to consecutive writes; an error
// aborts the rest of the burst (a prefix may have been sent).
func (c *udpConn) SendBatch(pkts [][]byte, dests []netip.AddrPort) error {
	if len(pkts) != len(dests) {
		return fmt.Errorf("simnet: SendBatch: %d packets, %d destinations", len(pkts), len(dests))
	}
	for i, pkt := range pkts {
		if _, err := c.uc.WriteToUDPAddrPort(pkt, dests[i]); err != nil {
			return err
		}
	}
	return nil
}

func (c *udpConn) Close() error {
	c.closed.Do(func() {
		close(c.done)
		_ = c.uc.Close()
	})
	return nil
}

func (c *udpConn) readLoop(h Handler) {
	// One receive buffer per socket, reused across datagrams: the
	// Handler contract forbids retaining pkt past the call, so the next
	// read may overwrite it.
	buf := make([]byte, 65535)
	for {
		n, from, err := c.uc.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-c.done:
				return
			default:
				// Transient error (e.g. ICMP port unreachable bounce);
				// keep serving.
				continue
			}
		}
		h(buf[:n], from)
	}
}
