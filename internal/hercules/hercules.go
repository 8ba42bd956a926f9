// Package hercules implements a Hercules-style high-speed bulk transfer
// over SCION (Section 4.7.1): the sender stripes a file's chunks across
// several disjoint paths simultaneously, aggregating their capacity —
// the core benefit the SCIERA Science-DMZ exploits — with selective
// acknowledgements and retransmission for reliability.
//
// The production tool bypasses the kernel with XDP; here the same
// algorithm runs over pan sockets on the simulated or loopback data
// plane, with link capacities enforced by the simulator's queueing
// model, so the multipath-vs-singlepath comparison measures the
// protocol, not the I/O substrate.
package hercules

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/pan"
)

// ChunkSize is the payload carried per data packet.
const ChunkSize = 8 * 1024

// Wire format kinds.
const (
	kindData = 1
	kindAck  = 2
	kindFin  = 3
)

var magic = [4]byte{'H', 'E', 'R', 'C'}

const hdrLen = 4 + 1 + 4 + 4 + 4 // magic, kind, transfer, chunk index, total

// encodeHeader writes a packet header.
func encodeHeader(kind uint8, transfer, idx, total uint32, payload []byte) []byte {
	b := make([]byte, hdrLen+len(payload))
	copy(b[0:4], magic[:])
	b[4] = kind
	binary.BigEndian.PutUint32(b[5:9], transfer)
	binary.BigEndian.PutUint32(b[9:13], idx)
	binary.BigEndian.PutUint32(b[13:17], total)
	copy(b[hdrLen:], payload)
	return b
}

type header struct {
	kind       uint8
	transfer   uint32
	idx, total uint32
	payload    []byte
}

func decodeHeader(b []byte) (*header, error) {
	if len(b) < hdrLen || [4]byte(b[0:4]) != magic {
		return nil, errors.New("hercules: not a hercules packet")
	}
	return &header{
		kind:     b[4],
		transfer: binary.BigEndian.Uint32(b[5:9]),
		idx:      binary.BigEndian.Uint32(b[9:13]),
		total:    binary.BigEndian.Uint32(b[13:17]),
		payload:  b[hdrLen:],
	}, nil
}

// Stats summarizes a completed transfer.
type Stats struct {
	Bytes          int
	Chunks         int
	Retransmits    int
	Elapsed        time.Duration
	PathsUsed      int
	ThroughputMbps float64
}

// Options tunes a transfer.
type Options struct {
	// MaxPaths bounds how many paths are striped across (default 4;
	// 1 reproduces a single-path transfer for the ablation).
	MaxPaths int
	// Window is the per-path in-flight chunk budget (default 16).
	Window int
	// RTO is the retransmission timeout (default 500ms).
	RTO time.Duration
	// Timeout bounds the whole transfer (default 2min). Both are on the
	// transport clock.
	Timeout time.Duration
}

func (o *Options) defaults() {
	if o.MaxPaths <= 0 {
		o.MaxPaths = 4
	}
	if o.Window <= 0 {
		o.Window = 16
	}
	if o.RTO <= 0 {
		o.RTO = 500 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Minute
	}
}

// Send transfers data to a hercules receiver, striping chunks across
// disjoint paths. It waits on the transport for acknowledgements, and
// every timeout is on the transport clock: on the simulator a transfer is
// a deterministic function of its inputs.
func Send(host *pan.Host, dst addr.UDPAddr, transferID uint32, data []byte, opts Options) (*Stats, error) {
	opts.defaults()
	conn, err := host.ListenUDP(0)
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	allPaths, err := conn.Paths(dst.IA)
	if err != nil {
		return nil, err
	}
	paths := combinator.DiverseSubset(pan.Fastest{}.Order(allPaths), opts.MaxPaths)
	if len(paths) == 0 && dst.IA != conn.LocalAddr().IA {
		return nil, fmt.Errorf("hercules: no paths to %v", dst.IA)
	}

	total := (len(data) + ChunkSize - 1) / ChunkSize
	if total == 0 {
		total = 1
	}
	acked := make([]bool, total)
	ackedCount := 0
	lastSent := make([]time.Time, total)
	sentOnce := make([]bool, total)

	// Elapsed time (and thus throughput) is measured on the transport
	// clock — virtual time on the simulator, where link capacities are
	// enforced.
	start := host.Now()
	deadline := start.Add(opts.Timeout)
	stats := &Stats{Bytes: len(data), Chunks: total, PathsUsed: len(paths)}

	chunk := func(i int) []byte {
		lo := i * ChunkSize
		hi := lo + ChunkSize
		if hi > len(data) {
			hi = len(data)
		}
		return data[lo:hi]
	}
	sendChunk := func(i, round int) error {
		pkt := encodeHeader(kindData, transferID, uint32(i), uint32(total), chunk(i))
		if len(paths) == 0 {
			_, err := conn.WriteTo(pkt, dst)
			return err
		}
		p := paths[(i+round)%len(paths)]
		_, err := conn.WriteToVia(pkt, dst, p)
		return err
	}

	// Initial burst + retransmission rounds driven by SACKs.
	inflight := 0
	next := 0
	round := 0
	for ackedCount < total {
		if host.Now().After(deadline) {
			return nil, fmt.Errorf("hercules: transfer timed out (%d/%d chunks)", ackedCount, total)
		}
		// Fill the window.
		budget := opts.Window * maxInt(1, len(paths))
		now := host.Now()
		for i := 0; i < total && inflight < budget; i++ {
			idx := (next + i) % total
			if acked[idx] {
				continue
			}
			if !lastSent[idx].IsZero() && now.Sub(lastSent[idx]) < opts.RTO {
				continue
			}
			if sentOnce[idx] {
				stats.Retransmits++
			}
			if err := sendChunk(idx, round); err != nil {
				return nil, err
			}
			lastSent[idx] = now
			sentOnce[idx] = true
			inflight++
		}
		next = (next + 1) % total
		round++

		// Drain ACKs until the window empties or a tick passes.
		msg, err := conn.ReadFromTimeout(opts.RTO)
		if err != nil {
			// Nothing heard for a full RTO: reopen the window and
			// requalify every unacked chunk for retransmission.
			inflight = 0
			for i := range lastSent {
				if !acked[i] {
					lastSent[i] = time.Time{}
				}
			}
			continue
		}
		h, err := decodeHeader(msg.Payload)
		if err != nil || h.kind != kindAck || h.transfer != transferID {
			continue
		}
		// ACK payload: bitmap of chunk states.
		for i := 0; i < total && i < len(h.payload)*8; i++ {
			if h.payload[i/8]&(1<<(i%8)) != 0 && !acked[i] {
				acked[i] = true
				ackedCount++
				if inflight > 0 {
					inflight--
				}
			}
		}
	}
	// Tell the receiver we are done.
	fin := encodeHeader(kindFin, transferID, 0, uint32(total), nil)
	if len(paths) > 0 {
		_, _ = conn.WriteToVia(fin, dst, paths[0])
	} else {
		_, _ = conn.WriteTo(fin, dst)
	}

	stats.Elapsed = host.Now().Sub(start)
	if stats.Elapsed > 0 {
		stats.ThroughputMbps = float64(len(data)*8) / stats.Elapsed.Seconds() / 1e6
	}
	return stats, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Receiver accepts hercules transfers. It is its socket's handler: a
// chunk is stored and acknowledged on the transport's event path.
type Receiver struct {
	conn      *pan.Conn
	done      chan Result
	transfers map[uint32]*inbound
	finished  map[uint32]bool
}

// Result is a completed inbound transfer.
type Result struct {
	Transfer uint32
	Data     []byte
	From     addr.UDPAddr
}

// Receive starts a receiver on the given SCION port. Completed
// transfers are delivered on Results.
func Receive(host *pan.Host, port uint16) (*Receiver, error) {
	r := &Receiver{
		done:      make(chan Result, 4),
		transfers: make(map[uint32]*inbound),
		finished:  make(map[uint32]bool),
	}
	conn, err := host.ListenUDP(port, pan.WithHandler(r.handle))
	if err != nil {
		return nil, err
	}
	r.conn = conn
	return r, nil
}

// Addr returns the receiver's SCION address.
func (r *Receiver) Addr() addr.UDPAddr { return r.conn.LocalAddr() }

// Results delivers completed transfers (up to four unread; later ones
// are dropped).
func (r *Receiver) Results() <-chan Result { return r.done }

// Close stops the receiver.
func (r *Receiver) Close() error { return r.conn.Close() }

type inbound struct {
	chunks [][]byte
	have   int
}

func (r *Receiver) handle(_ *pan.Conn, msg pan.Message) {
	h, err := decodeHeader(msg.Payload)
	if err != nil {
		return
	}
	switch h.kind {
	case kindData:
		if r.finished[h.transfer] {
			// Late duplicate after completion: re-ack everything.
			r.sendAck(h.transfer, int(h.total), nil, msg.From)
			return
		}
		st := r.transfers[h.transfer]
		if st == nil {
			st = &inbound{chunks: make([][]byte, h.total)}
			r.transfers[h.transfer] = st
		}
		if int(h.idx) < len(st.chunks) && st.chunks[h.idx] == nil {
			st.chunks[h.idx] = append([]byte(nil), h.payload...)
			st.have++
		}
		r.sendAck(h.transfer, len(st.chunks), st, msg.From)
		if st.have == len(st.chunks) {
			r.finished[h.transfer] = true
			var data []byte
			for _, c := range st.chunks {
				data = append(data, c...)
			}
			delete(r.transfers, h.transfer)
			select {
			case r.done <- Result{Transfer: h.transfer, Data: data, From: msg.From}:
			default:
			}
		}
	case kindFin:
		delete(r.transfers, h.transfer)
	}
}

// sendAck reports chunk state as a bitmap; a nil state acks everything.
func (r *Receiver) sendAck(transfer uint32, total int, st *inbound, to addr.UDPAddr) {
	bitmap := make([]byte, (total+7)/8)
	for i := 0; i < total; i++ {
		if st == nil || st.chunks[i] != nil {
			bitmap[i/8] |= 1 << (i % 8)
		}
	}
	_, _ = r.conn.WriteTo(encodeHeader(kindAck, transfer, 0, uint32(total), bitmap), to)
}
