// Package dispatcher implements the legacy SCION dispatcher
// (Section 4.8): a per-host background process listening on a single
// well-known UDP port that demultiplexes all inbound SCION traffic to
// the correct application. It faithfully recreates what a kernel socket
// layer would do — and therefore also recreates its problems: every
// application shares one process's receive path, which the paper
// identifies as the bottleneck that motivated the dispatcherless
// migration. The package exists both for backward compatibility and as
// the baseline of the dispatcher-vs-dispatcherless ablation benchmarks.
package dispatcher

import (
	"bytes"
	"fmt"
	"net/netip"
	"sync"

	"sciera/internal/router"
	"sciera/internal/simnet"
	"sciera/internal/slayers"
	"sciera/internal/telemetry"
)

// Dispatcher demultiplexes SCION packets arriving at the shared port.
type Dispatcher struct {
	conn simnet.Conn
	net  simnet.Network

	mu    sync.RWMutex
	table map[uint16]netip.AddrPort // SCION L4 port -> application socket

	// procs holds the idle demux states, so the demux path allocates
	// nothing in steady state. A free list, not a sync.Pool, as in the
	// router: what delivery allocates must not depend on which P a
	// goroutine runs on, or on when the collector runs.
	procMu sync.Mutex
	procs  []*demuxProc

	// Forwarded and Dropped count demux outcomes.
	Forwarded telemetry.Counter
	Dropped   telemetry.Counter
	// DemuxHits/DemuxMisses refine the outcome mix: a hit found a
	// registered application; a miss resolved no usable port or found
	// none registered. SCMPSeen counts SCMP packets crossing the demux
	// path; ParseFailures counts undecodable datagrams.
	DemuxHits     telemetry.Counter
	DemuxMisses   telemetry.Counter
	SCMPSeen      telemetry.Counter
	ParseFailures telemetry.Counter

	// Trace receives sampled demux observations; nil disables tracing.
	// Set before traffic flows.
	Trace *telemetry.TraceRing

	// PerPacketWork simulates the dispatcher's copy/parse overhead in
	// benchmarks (number of extra payload scans); 0 for none.
	PerPacketWork int
}

// demuxProc is the reused per-batch demux state: one decode scratch
// shared by a same-flow burst, the accumulated outgoing wires for the
// single end-of-batch flush, and a one-entry table-lookup cache (bursts
// overwhelmingly target one application, so most followers resolve
// their socket with an integer comparison instead of an RLock).
type demuxProc struct {
	pkt   slayers.Packet
	wires [][]byte
	dests []netip.AddrPort

	cachePort uint16
	cacheApp  netip.AddrPort
	cacheHit  bool
	cached    bool
}

// Start binds the dispatcher on the host address's well-known port.
func Start(net simnet.Network, host netip.Addr) (*Dispatcher, error) {
	d := &Dispatcher{table: make(map[uint16]netip.AddrPort), net: net}
	conn, err := net.ListenBatch(netip.AddrPortFrom(host, router.DispatcherPort), d.handleBatch)
	if err != nil {
		return nil, fmt.Errorf("dispatcher: %w", err)
	}
	d.conn = conn
	return d, nil
}

// RegisterTelemetry adopts the dispatcher's counters into a registry.
// The cells are the same ones tests read directly, so exposition and
// direct reads can never disagree.
func (d *Dispatcher) RegisterTelemetry(reg *telemetry.Registry) {
	reg.RegisterCounter("sciera_dispatcher_forwarded_total", "packets demultiplexed to an application", &d.Forwarded)
	reg.RegisterCounter("sciera_dispatcher_dropped_total", "packets the dispatcher could not deliver", &d.Dropped)
	reg.RegisterCounter("sciera_dispatcher_demux_hits_total", "demux lookups that found a registered application", &d.DemuxHits)
	reg.RegisterCounter("sciera_dispatcher_demux_misses_total", "demux lookups with no registered application", &d.DemuxMisses)
	reg.RegisterCounter("sciera_dispatcher_scmp_total", "SCMP packets crossing the demux path", &d.SCMPSeen)
	reg.RegisterCounter("sciera_dispatcher_parse_failures_total", "undecodable datagrams at the dispatcher", &d.ParseFailures)
}

// tracePacket records one sampled demux observation; callers guard with
// d.Trace.Sample().
func (d *Dispatcher) tracePacket(verdict telemetry.TraceVerdict) {
	d.Trace.Record(telemetry.TraceEntry{
		TimeNS:  d.net.Now().UnixNano(),
		Verdict: verdict,
	})
}

// Addr returns the dispatcher's underlay address.
func (d *Dispatcher) Addr() netip.AddrPort { return d.conn.LocalAddr() }

// Close stops the dispatcher.
func (d *Dispatcher) Close() error { return d.conn.Close() }

// Register maps a SCION L4 port to an application socket. It fails if
// the port is taken — the classic contention point of the shared
// dispatcher model.
func (d *Dispatcher) Register(port uint16, app netip.AddrPort) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if old, ok := d.table[port]; ok && old != app {
		return fmt.Errorf("dispatcher: port %d already registered to %v", port, old)
	}
	d.table[port] = app
	return nil
}

// Unregister releases a port.
func (d *Dispatcher) Unregister(port uint16) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.table, port)
}

// handleBatch demultiplexes a delivered batch in one pass. Buffers are
// only borrowed for the call (simnet.BatchHandler contract) and
// SendBatch copies, so accumulating them until the flush is safe. The
// dispatcher never originates packets of its own, so a single
// end-of-batch flush preserves the per-packet send order exactly.
//
// Within the batch, a run of packets sharing the leader's header image
// takes the same-flow fast path: only the L4 slice is re-decoded, and
// the demux outcome is resolved through the proc's one-entry cache.
// Per-packet counters and traces are accounted identically to the old
// one-at-a-time path.
func (d *Dispatcher) handleBatch(pkts [][]byte, from []netip.AddrPort) {
	proc := d.getProc()
	i := 0
	for i < len(pkts) {
		raw := pkts[i]
		i++
		if err := proc.pkt.Decode(raw); err != nil {
			d.dropUndecodable()
			continue
		}
		proc.cached = false // new flow: invalidate the lookup cache
		d.demuxOne(proc, raw)
		hl := slayers.CmnHdrLen + proc.pkt.Hdr.Path.Len()
		for i < len(pkts) && len(pkts[i]) == len(raw) && bytes.Equal(pkts[i][:hl], raw[:hl]) {
			b := pkts[i]
			i++
			if err := proc.pkt.DecodeSameFlow(b, hl); err != nil {
				d.dropUndecodable()
				continue
			}
			d.demuxOne(proc, b)
		}
	}
	if len(proc.wires) > 0 {
		_ = d.conn.SendBatch(proc.wires, proc.dests)
	}
	for j := range proc.wires {
		proc.wires[j] = nil
	}
	proc.wires = proc.wires[:0]
	proc.dests = proc.dests[:0]
	d.putProc(proc)
}

// getProc takes an idle demux state, or makes one.
func (d *Dispatcher) getProc() *demuxProc {
	d.procMu.Lock()
	defer d.procMu.Unlock()
	if n := len(d.procs); n > 0 {
		proc := d.procs[n-1]
		d.procs = d.procs[:n-1]
		return proc
	}
	return new(demuxProc)
}

// putProc returns a demux state to the idle list.
func (d *Dispatcher) putProc(proc *demuxProc) {
	d.procMu.Lock()
	d.procs = append(d.procs, proc)
	d.procMu.Unlock()
}

func (d *Dispatcher) dropUndecodable() {
	d.Dropped.Add(1)
	d.ParseFailures.Add(1)
	if d.Trace.Sample() {
		d.tracePacket(telemetry.VerdictParseErr)
	}
}

// demuxOne resolves one decoded packet to its application socket and
// queues the wire for the batch flush, maintaining the same counters
// the per-packet path kept.
func (d *Dispatcher) demuxOne(proc *demuxProc, raw []byte) {
	if proc.pkt.SCMP != nil {
		d.SCMPSeen.Add(1)
	}
	// Simulated parse/copy overhead for the ablation benchmarks.
	for i := 0; i < d.PerPacketWork; i++ {
		var sum byte
		for _, b := range raw {
			sum ^= b
		}
		_ = sum
	}
	port, ok := demuxPort(&proc.pkt)
	if !ok {
		d.Dropped.Add(1)
		d.DemuxMisses.Add(1)
		if d.Trace.Sample() {
			d.tracePacket(telemetry.VerdictDemuxMiss)
		}
		return
	}
	if !proc.cached || port != proc.cachePort {
		d.mu.RLock()
		proc.cacheApp, proc.cacheHit = d.table[port]
		d.mu.RUnlock()
		proc.cachePort, proc.cached = port, true
	}
	if !proc.cacheHit {
		d.Dropped.Add(1)
		d.DemuxMisses.Add(1)
		if d.Trace.Sample() {
			d.tracePacket(telemetry.VerdictDemuxMiss)
		}
		return
	}
	d.Forwarded.Add(1)
	d.DemuxHits.Add(1)
	if d.Trace.Sample() {
		d.tracePacket(telemetry.VerdictDemuxHit)
	}
	proc.wires = append(proc.wires, raw)
	proc.dests = append(proc.dests, proc.cacheApp)
}

// demuxPort extracts the application port a packet belongs to.
func demuxPort(pkt *slayers.Packet) (uint16, bool) {
	switch {
	case pkt.UDP != nil:
		return pkt.UDP.DstPort, true
	case pkt.SCMP != nil:
		switch pkt.SCMP.Type {
		case slayers.SCMPEchoRequest, slayers.SCMPEchoReply,
			slayers.SCMPTracerouteRequest, slayers.SCMPTracerouteReply:
			return pkt.SCMP.Identifier, true
		default:
			// SCMP error: demux on the quoted packet's source port.
			return slayers.QuotedPort(pkt.Payload)
		}
	}
	return 0, false
}
