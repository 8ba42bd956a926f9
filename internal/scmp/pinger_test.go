package scmp

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/simnet"
	"sciera/internal/slayers"
	"sciera/internal/spath"
)

var testIA = addr.MustParseIA("71-10")

// fakeRouter stands in for the AS's border router so the pinger and the
// responder can be driven without a network (this package cannot import
// core): per packet it forwards to the destination host, drops, or
// answers the sender with an SCMP error quoting the packet.
type fakeRouter struct {
	t     *testing.T
	conn  simnet.Conn
	hosts map[netip.Addr]netip.AddrPort
	mode  func(pkt *slayers.Packet) routerAction
}

type routerAction int

const (
	forward routerAction = iota
	drop
	reject
)

func (r *fakeRouter) handle(raw []byte, from netip.AddrPort) {
	var pkt slayers.Packet
	if err := pkt.Decode(raw); err != nil {
		r.t.Errorf("router: undecodable packet: %v", err)
		return
	}
	switch r.mode(&pkt) {
	case forward:
		_ = r.conn.Send(raw, r.hosts[pkt.Hdr.DstHost])
	case reject:
		errPkt := slayers.Packet{
			Hdr: slayers.SCION{
				DstIA: pkt.Hdr.SrcIA, SrcIA: testIA,
				DstHost: pkt.Hdr.SrcHost, SrcHost: r.conn.LocalAddr().Addr(),
			},
			SCMP:    &slayers.SCMP{Type: slayers.SCMPExternalInterfaceDown, IA: testIA, IfID: 7},
			Payload: raw,
		}
		out, err := errPkt.Serialize(nil)
		if err != nil {
			r.t.Fatal(err)
		}
		_ = r.conn.Send(out, from)
	}
}

// testbed is a pinger and a responder either side of a fakeRouter that
// forwards everything until told otherwise.
func testbed(t *testing.T) (*simnet.Sim, *fakeRouter, *Pinger, *Responder) {
	t.Helper()
	sim := simnet.NewSim(time.Unix(0, 0))
	sim.Latency = func(_, _ netip.AddrPort, _ int, _ time.Time) (time.Duration, bool) {
		return time.Millisecond, true
	}
	rtr := &fakeRouter{t: t, hosts: map[netip.Addr]netip.AddrPort{}, mode: func(*slayers.Packet) routerAction { return forward }}
	conn, err := sim.Listen(netip.AddrPort{}, rtr.handle)
	if err != nil {
		t.Fatal(err)
	}
	rtr.conn = conn
	p, err := NewPinger(sim, testIA, conn.LocalAddr(), netip.AddrPort{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := NewResponder(sim, testIA, conn.LocalAddr(), netip.AddrPort{})
	if err != nil {
		t.Fatal(err)
	}
	rtr.hosts[p.Addr().Addr()] = p.Addr()
	rtr.hosts[resp.Addr().Addr()] = resp.Addr()
	return sim, rtr, p, resp
}

// result counts one probe's callbacks.
type result struct {
	calls int
	rtt   time.Duration
	err   error
}

func (r *result) cb(rtt time.Duration, err error) { r.calls++; r.rtt, r.err = rtt, err }

// twoHopPath is a structurally valid path; nothing here verifies MACs.
func twoHopPath() *combinator.Path {
	return &combinator.Path{
		Fingerprint: "two-hop",
		Raw: spath.Path{
			SegLens: [3]uint8{2},
			Infos:   []spath.InfoField{{ConsDir: true, SegID: 0xbeef, Timestamp: 1_700_000_000}},
			Hops:    []spath.HopField{{ConsEgress: 1, MAC: [6]byte{1, 2, 3, 4, 5, 6}}, {ConsIngress: 2, MAC: [6]byte{6, 5, 4, 3, 2, 1}}},
		},
	}
}

// TestStampedEchoMatchesSerialize: the cached echo, re-stamped, must be
// byte for byte what serialising the probe from scratch produced before —
// for every sequence number, stamped in random order so the incremental
// checksum is carried across arbitrary old/new pairs.
func TestStampedEchoMatchesSerialize(t *testing.T) {
	_, _, p, resp := testbed(t)
	rng := rand.New(rand.NewSource(16))
	for _, path := range []*combinator.Path{nil, twoHopPath()} {
		e, err := p.echoLocked(testIA, resp.Addr().Addr(), path)
		if err != nil {
			t.Fatal(err)
		}
		fresh := slayers.Packet{
			Hdr:  slayers.SCION{DstIA: testIA, SrcIA: testIA, DstHost: resp.Addr().Addr(), SrcHost: p.Addr().Addr()},
			SCMP: &slayers.SCMP{Type: slayers.SCMPEchoRequest, Identifier: p.Addr().Port()},
		}
		if path != nil {
			fresh.Hdr.Path = *path.Raw.Copy()
		}
		var want []byte
		for _, seq := range rng.Perm(1 << 16) {
			stampSeq(e.raw, e.l4Off, uint16(seq))
			fresh.SCMP.SeqNo = uint16(seq)
			if want, err = fresh.Serialize(want[:0]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(e.raw, want) {
				t.Fatalf("path %v, seq %d: stamped echo differs from a fresh serialisation", path != nil, seq)
			}
		}
		if again, _ := p.echoLocked(testIA, resp.Addr().Addr(), path); again != e {
			t.Error("second lookup of the same path serialised a new echo")
		}
	}
	// A refreshed path (same interfaces, new hop fields) replaces the
	// echo of the path it supersedes.
	old, refreshed := twoHopPath(), twoHopPath()
	refreshed.Raw.Infos[0].Timestamp++
	if _, err := p.echoLocked(testIA, resp.Addr().Addr(), old); err != nil {
		t.Fatal(err)
	}
	before := len(p.echoes)
	e, err := p.echoLocked(testIA, resp.Addr().Addr(), refreshed)
	if err != nil {
		t.Fatal(err)
	}
	if e.path != refreshed || len(p.echoes) != before {
		t.Errorf("refreshed path: echo for %p, %d entries (was %d)", e.path, len(p.echoes), before)
	}
	var dec slayers.Packet
	if err := dec.Decode(e.raw); err != nil || dec.Hdr.Path.Infos[0].Timestamp != refreshed.Raw.Infos[0].Timestamp {
		t.Errorf("refreshed echo carries the old path (decode: %v)", err)
	}
}

func TestPingReplyLossAndSCMPError(t *testing.T) {
	sim, rtr, p, resp := testbed(t)
	// The first request is answered, the second lost, the third rejected.
	rtr.mode = func(pkt *slayers.Packet) routerAction {
		switch {
		case pkt.SCMP.Type == slayers.SCMPEchoRequest && pkt.SCMP.SeqNo == 2:
			return drop
		case pkt.SCMP.Type == slayers.SCMPEchoRequest && pkt.SCMP.SeqNo == 3:
			return reject
		}
		return forward
	}
	var ok, lost, rejected result
	p.Ping(testIA, resp.Addr().Addr(), nil, time.Second, ok.cb)
	p.Ping(testIA, resp.Addr().Addr(), twoHopPath(), time.Second, lost.cb)
	p.Ping(testIA, resp.Addr().Addr(), nil, time.Second, rejected.cb)
	sim.RunFor(500 * time.Millisecond)
	if ok.calls != 1 || ok.err != nil || ok.rtt != 4*time.Millisecond {
		t.Errorf("answered probe: %+v, want one call, 4ms (four 1ms legs)", ok)
	}
	if rejected.calls != 1 || rejected.err == nil || errors.Is(rejected.err, ErrTimeout) {
		t.Errorf("rejected probe: %+v, want one SCMP error", rejected)
	}
	if lost.calls != 0 || p.outstanding != 1 {
		t.Errorf("lost probe resolved early: %+v, %d outstanding", lost, p.outstanding)
	}
	sim.RunFor(5 * time.Second)
	if lost.calls != 1 || !errors.Is(lost.err, ErrTimeout) {
		t.Errorf("lost probe: %+v, want one ErrTimeout", lost)
	}
	if ok.calls != 1 || rejected.calls != 1 {
		t.Errorf("a resolved probe's timeout still fired: %+v %+v", ok, rejected)
	}
	if p.outstanding != 0 || resp.Answered() != 1 {
		t.Errorf("%d outstanding, %d answered", p.outstanding, resp.Answered())
	}
}

// TestPingSendErrorFreesSlot: a probe that cannot be sent fails through
// its callback, once, and leaves neither a ring slot nor a timer behind.
func TestPingSendErrorFreesSlot(t *testing.T) {
	sim, _, p, resp := testbed(t)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	var res result
	p.Ping(testIA, resp.Addr().Addr(), nil, time.Second, res.cb)
	if res.calls != 1 || !errors.Is(res.err, simnet.ErrClosed) {
		t.Fatalf("ping on a closed conn: %+v, want one ErrClosed", res)
	}
	if p.outstanding != 0 {
		t.Errorf("%d probes outstanding after a failed send", p.outstanding)
	}
	for i := range p.ring {
		if p.ring[i].live {
			t.Errorf("ring slot %d still live", i)
		}
	}
	if n := sim.PendingEvents(); n != 0 {
		t.Errorf("%d events pending: the timeout stayed armed", n)
	}
}

// TestTracerouteSendErrorExactlyOnce: the send error ends the walk; the
// hop's timeout must neither resume it nor report a second time.
func TestTracerouteSendErrorExactlyOnce(t *testing.T) {
	sim, _, p, _ := testbed(t)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	calls := 0
	var gotErr error
	p.Traceroute(testIA, twoHopPath(), time.Second, func(_ []Hop, err error) { calls++; gotErr = err })
	if n := sim.PendingEvents(); n != 0 {
		t.Errorf("%d events pending: the hop's timeout stayed armed", n)
	}
	sim.RunFor(10 * time.Second)
	if calls != 1 || !errors.Is(gotErr, simnet.ErrClosed) {
		t.Errorf("traceroute on a closed conn: %d callbacks, err %v; want one ErrClosed", calls, gotErr)
	}
	if len(p.tracePending) != 0 {
		t.Errorf("%d traceroute probes still registered", len(p.tracePending))
	}
}

// TestTracerouteUnansweredHops: with nobody answering, every hop times
// out in turn and the walk still ends with one callback.
func TestTracerouteUnansweredHops(t *testing.T) {
	sim, rtr, p, _ := testbed(t)
	rtr.mode = func(*slayers.Packet) routerAction { return drop }
	calls := 0
	var hops []Hop
	p.Traceroute(testIA, twoHopPath(), time.Second, func(h []Hop, err error) {
		calls++
		hops = h
		if err != nil {
			t.Error(err)
		}
	})
	sim.RunFor(10 * time.Second)
	if calls != 1 || len(hops) != 2 || hops[0].IA != 0 || hops[1].IA != 0 {
		t.Errorf("%d callbacks, hops %+v; want one callback with two unanswered hops", calls, hops)
	}
	if len(p.tracePending) != 0 {
		t.Errorf("%d traceroute probes still registered", len(p.tracePending))
	}
}

// TestPingSequenceWrap drives the sequence number past 65,535 while
// older probes are still outstanding: the stragglers keep their slots
// (new probes skip the sequence numbers that would land on them), every
// callback runs exactly once, and the ring stays the size of what is
// outstanding.
func TestPingSequenceWrap(t *testing.T) {
	sim, rtr, p, resp := testbed(t)
	p.nextSeq = 65530
	const stragglers = 4 // seq 65531..65534, ring slots 11..14
	rtr.mode = func(pkt *slayers.Packet) routerAction {
		if pkt.SCMP.Type == slayers.SCMPEchoRequest && pkt.SCMP.SeqNo > 65530 && pkt.SCMP.SeqNo < 65535 {
			return drop
		}
		return forward
	}
	late := make([]result, stragglers)
	for i := range late {
		p.Ping(testIA, resp.Addr().Addr(), nil, time.Minute, late[i].cb)
	}
	// One ring's worth of answered probes, one at a time: 65535, 0, 1, …
	// wraps the sequence number and comes back round to the stragglers.
	answered := make([]result, minRing+4)
	for i := range answered {
		p.Ping(testIA, resp.Addr().Addr(), nil, time.Second, answered[i].cb)
		sim.RunFor(10 * time.Millisecond)
		if answered[i].calls != 1 || answered[i].err != nil {
			t.Fatalf("probe %d across the wrap: %+v", i, answered[i])
		}
	}
	if p.nextSeq >= 65530 || p.nextSeq < minRing {
		t.Errorf("nextSeq = %d: did not wrap", p.nextSeq)
	}
	if len(p.ring) != minRing || p.outstanding != stragglers {
		t.Errorf("ring of %d with %d outstanding, want %d and %d", len(p.ring), p.outstanding, minRing, stragglers)
	}
	for i := range late {
		if late[i].calls != 0 {
			t.Errorf("straggler %d resolved early: %+v", i, late[i])
		}
	}
	sim.RunFor(2 * time.Minute)
	for i := range late {
		if late[i].calls != 1 || !errors.Is(late[i].err, ErrTimeout) {
			t.Errorf("straggler %d: %+v, want one ErrTimeout", i, late[i])
		}
	}
	for i := range answered {
		if answered[i].calls != 1 {
			t.Errorf("probe %d: %d callbacks", i, answered[i].calls)
		}
	}
	if p.outstanding != 0 {
		t.Errorf("%d outstanding at the end", p.outstanding)
	}
}

// TestPingRingGrows: more probes in flight than slots doubles the ring,
// rehashing the live probes, and nothing is lost or answered twice.
func TestPingRingGrows(t *testing.T) {
	sim, _, p, resp := testbed(t)
	p.nextSeq = 65500 // the burst straddles the wrap
	burst := make([]result, 3*minRing)
	for i := range burst {
		p.Ping(testIA, resp.Addr().Addr(), nil, time.Second, burst[i].cb)
	}
	if len(p.ring) != 4*minRing || p.outstanding != len(burst) {
		t.Errorf("ring of %d with %d outstanding, want %d and %d", len(p.ring), p.outstanding, 4*minRing, len(burst))
	}
	sim.RunFor(5 * time.Second)
	for i := range burst {
		if burst[i].calls != 1 || burst[i].err != nil || burst[i].rtt != 4*time.Millisecond {
			t.Errorf("probe %d: %+v", i, burst[i])
		}
	}
	if p.outstanding != 0 || resp.Answered() != uint64(len(burst)) {
		t.Errorf("%d outstanding, %d answered", p.outstanding, resp.Answered())
	}
}
