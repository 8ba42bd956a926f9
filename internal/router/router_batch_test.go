package router

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/simnet"
	"sciera/internal/slayers"
	"sciera/internal/telemetry"
)

// TestRouterLifecycle pins the close semantics: Close is idempotent
// (the second call returns nil), tears the interface table down, and
// makes any further wiring call fail with ErrClosed instead of binding
// sockets on a dead router.
func TestRouterLifecycle(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	r, err := New(Config{IA: asA, Key: key(asA), Net: sim})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddInterface(1); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("first Close = %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil (idempotent)", err)
	}
	if _, ok := r.InterfaceAddr(1); ok {
		t.Error("interface table still populated after Close")
	}
	if _, err := r.AddInterface(2); !errors.Is(err, ErrClosed) {
		t.Errorf("AddInterface after Close = %v, want ErrClosed", err)
	}
	if err := r.ConnectInterface(1, netip.MustParseAddrPort("10.0.0.1:1"), nil); !errors.Is(err, ErrClosed) {
		t.Errorf("ConnectInterface after Close = %v, want ErrClosed", err)
	}
}

// TestSCMPErrorQuotingSCMPRoutedToApp covers the localPort branch where
// an SCMP error quotes an SCMP packet (not UDP): the prober's port must
// be recovered from the quoted message's Identifier via the tolerant
// decoder, and the error delivered to the probing application.
func TestSCMPErrorQuotingSCMPRoutedToApp(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	r, err := New(Config{IA: asA, Key: key(asA), Net: sim})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	app := listen(t, sim, netip.AddrPort{}) // the prober awaiting its error
	src := listen(t, sim, netip.AddrPort{}) // far-end host relaying the error

	// The offending packet: an SCMP echo probe sent by app, whose
	// Identifier carries the prober's underlay port (the demux
	// convention). Quote it truncated, as a remote router would.
	probe := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: asB, SrcIA: asA,
			DstHost: sim.AllocAddr(),
			SrcHost: app.conn.LocalAddr().Addr(),
			Path:    corePath(t),
		},
		SCMP:    &slayers.SCMP{Type: slayers.SCMPEchoRequest, Identifier: app.conn.LocalAddr().Port(), SeqNo: 1},
		Payload: make([]byte, 200),
	}
	probeRaw, err := probe.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	quote := probeRaw[:len(probeRaw)-150] // cut mid-payload: strict decode must fail
	var strict slayers.Packet
	if err := strict.Decode(quote); err == nil {
		t.Fatal("setup: quote decodes strictly; test would not exercise the tolerant path")
	}

	// The error message carrying that quote, delivered to the prober's
	// host through this router (empty path: AS-local delivery).
	errPkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: asA, SrcIA: asB,
			DstHost: app.conn.LocalAddr().Addr(),
			SrcHost: src.conn.LocalAddr().Addr(),
		},
		SCMP:    &slayers.SCMP{Type: slayers.SCMPDestinationUnreachable, Code: slayers.CodeNoRoute},
		Payload: quote,
	}
	raw, err := errPkt.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.conn.Send(raw, r.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	if len(app.pkts) != 1 {
		t.Fatalf("prober received %d packets, want 1 (error not routed via quoted SCMP Identifier)", len(app.pkts))
	}
	got := app.pkts[0]
	if got.SCMP == nil || got.SCMP.Type != slayers.SCMPDestinationUnreachable {
		t.Fatalf("prober got %+v, want DestinationUnreachable", got)
	}
	var quoted slayers.Packet
	if err := quoted.DecodeTruncated(got.Payload); err != nil {
		t.Fatalf("returned quote: %v", err)
	}
	if quoted.SCMP == nil || quoted.SCMP.Identifier != app.conn.LocalAddr().Port() {
		t.Errorf("quoted SCMP = %+v, want Identifier %d", quoted.SCMP, app.conn.LocalAddr().Port())
	}
	if r.Metrics().Delivered.Load() != 1 {
		t.Errorf("delivered = %d", r.Metrics().Delivered.Load())
	}
}

// TestBurstForwardAndDeliver drives a 32-packet same-flow burst through
// two routers with SendBatch and verifies every packet arrives with its
// own payload and L4 ports intact — the burst fast path shares the
// leader's header verdicts but must never share L4 state. Half the
// burst targets a second application to pin per-packet port demux
// inside a deliver burst.
func TestBurstForwardAndDeliver(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	ra, rb := twoAS(t, sim, false)
	defer ra.Close()
	defer rb.Close()

	src := listen(t, sim, netip.AddrPort{})
	dst1 := listen(t, sim, netip.AddrPort{})
	// Second application on the same host, so both are reachable from
	// one header image and only the UDP destination port demuxes them.
	dst2 := listen(t, sim, netip.AddrPortFrom(dst1.conn.LocalAddr().Addr(), 41000))

	const n = 32
	pkts := make([][]byte, n)
	dests := make([]netip.AddrPort, n)
	for i := 0; i < n; i++ {
		to := dst1
		if i%2 == 1 {
			to = dst2
		}
		pkt := &slayers.Packet{
			Hdr: slayers.SCION{
				DstIA: asB, SrcIA: asA,
				DstHost: dst1.conn.LocalAddr().Addr(),
				SrcHost: src.conn.LocalAddr().Addr(),
				Path:    corePath(t),
			},
			UDP:     &slayers.UDP{SrcPort: src.conn.LocalAddr().Port(), DstPort: to.conn.LocalAddr().Port()},
			Payload: []byte(fmt.Sprintf("burst-%02d", i)),
		}
		raw, err := pkt.Serialize(nil)
		if err != nil {
			t.Fatal(err)
		}
		pkts[i] = raw
		dests[i] = ra.LocalAddr()
	}
	if err := src.conn.SendBatch(pkts, dests); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	if len(dst1.pkts)+len(dst2.pkts) != n {
		t.Fatalf("delivered %d+%d, want %d", len(dst1.pkts), len(dst2.pkts), n)
	}
	for k, c := range []*capture{dst1, dst2} {
		for j, p := range c.pkts {
			want := fmt.Sprintf("burst-%02d", 2*j+k)
			if string(p.Payload) != want {
				t.Errorf("dst%d pkt %d payload = %q, want %q", k+1, j, p.Payload, want)
			}
		}
	}
	if fwd := ra.Metrics().Forwarded.Load(); fwd != n {
		t.Errorf("A forwarded = %d, want %d", fwd, n)
	}
	if del := rb.Metrics().Delivered.Load(); del != n {
		t.Errorf("B delivered = %d, want %d", del, n)
	}
}

// TestBurstDeliverErrorMidBurst exercises the flush-then-error path: in
// a deliver burst of SCMP errors sharing one header image, a follower
// whose quote resolves no port must not derail the rest of the burst —
// packets before and after it still reach the application, in order,
// and the failure is accounted exactly as on the per-packet path.
func TestBurstDeliverErrorMidBurst(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	r, err := New(Config{IA: asA, Key: key(asA), Net: sim})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	app := listen(t, sim, netip.AddrPort{})
	src := listen(t, sim, netip.AddrPort{})

	// Two well-formed quotes distinguished by the quoted probe's SeqNo
	// (the error header itself carries no sequence number on the wire),
	// and one same-length garbage quote the tolerant decoder rejects.
	mkQuote := func(seq uint16) []byte {
		probe := &slayers.Packet{
			Hdr: slayers.SCION{
				DstIA: asB, SrcIA: asA,
				DstHost: sim.AllocAddr(),
				SrcHost: app.conn.LocalAddr().Addr(),
				Path:    corePath(t),
			},
			SCMP: &slayers.SCMP{Type: slayers.SCMPEchoRequest, Identifier: app.conn.LocalAddr().Port(), SeqNo: seq},
		}
		raw, err := probe.Serialize(nil)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	quoteA, quoteB := mkQuote(0), mkQuote(2)
	badQuote := make([]byte, len(quoteA)) // same length: same header image upstream
	for i := range badQuote {
		badQuote[i] = 0xff // tolerant decoder finds no L4 here
	}
	mk := func(quote []byte) []byte {
		p := &slayers.Packet{
			Hdr: slayers.SCION{
				DstIA: asA, SrcIA: asB,
				DstHost: app.conn.LocalAddr().Addr(),
				SrcHost: src.conn.LocalAddr().Addr(),
			},
			SCMP:    &slayers.SCMP{Type: slayers.SCMPDestinationUnreachable, Code: slayers.CodeNoRoute},
			Payload: quote,
		}
		raw, err := p.Serialize(nil)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	pkts := [][]byte{mk(quoteA), mk(badQuote), mk(quoteB)}
	dests := []netip.AddrPort{r.LocalAddr(), r.LocalAddr(), r.LocalAddr()}
	if err := src.conn.SendBatch(pkts, dests); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	if len(app.pkts) != 2 {
		t.Fatalf("app received %d, want 2 (burst derailed by mid-burst miss)", len(app.pkts))
	}
	for i, wantSeq := range []uint16{0, 2} {
		var quoted slayers.Packet
		if err := quoted.DecodeTruncated(app.pkts[i].Payload); err != nil {
			t.Fatalf("delivered quote %d: %v", i, err)
		}
		if quoted.SCMP.SeqNo != wantSeq {
			t.Errorf("delivery %d quotes probe seq %d, want %d", i, quoted.SCMP.SeqNo, wantSeq)
		}
	}
	if nr := r.Metrics().NoRouteDrops.Load(); nr != 1 {
		t.Errorf("noroute drops = %d, want 1", nr)
	}
	// Error-on-error guard: the unresolvable *error* message must not
	// have provoked an SCMP error of its own.
	if sent := r.Metrics().SCMPSent.Load(); sent != 0 {
		t.Errorf("SCMP sent = %d, want 0", sent)
	}
}

// TestAlertBurstAnswersEachProbe pins the rule that alerted packets
// never share verdicts: two traceroute requests with byte-identical
// headers differ in their L4 sequence numbers, and each must get its
// own reply rather than riding the first one's decision.
func TestAlertBurstAnswersEachProbe(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	ra, rb := twoAS(t, sim, false)
	defer ra.Close()
	defer rb.Close()

	src := listen(t, sim, netip.AddrPort{})
	mk := func(seq uint16) []byte {
		p := corePath(t)
		p.Hops[1].RouterAlert = true
		pkt := &slayers.Packet{
			Hdr: slayers.SCION{
				DstIA: asB, SrcIA: asA,
				DstHost: sim.AllocAddr(),
				SrcHost: src.conn.LocalAddr().Addr(),
				Path:    p,
			},
			SCMP: &slayers.SCMP{
				Type:       slayers.SCMPTracerouteRequest,
				Identifier: src.conn.LocalAddr().Port(),
				SeqNo:      seq,
			},
		}
		raw, err := pkt.Serialize(nil)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	pkts := [][]byte{mk(7), mk(8)}
	dests := []netip.AddrPort{ra.LocalAddr(), ra.LocalAddr()}
	if err := src.conn.SendBatch(pkts, dests); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if len(src.pkts) != 2 {
		t.Fatalf("received %d replies, want 2", len(src.pkts))
	}
	if src.pkts[0].SCMP.SeqNo != 7 || src.pkts[1].SCMP.SeqNo != 8 {
		t.Errorf("reply seqs = %d,%d want 7,8", src.pkts[0].SCMP.SeqNo, src.pkts[1].SCMP.SeqNo)
	}
	for _, p := range src.pkts {
		if p.SCMP.Type != slayers.SCMPTracerouteReply || p.SCMP.IA != asB {
			t.Errorf("reply = %+v", p.SCMP)
		}
	}
}

// burstCampaign pushes 40 deterministic mixed packets (three sizes,
// every seventh with a corrupted checksum, one undecodable runt at the
// tail) through an A->B pair — as one SendBatch, or one Send at a time
// with the simulator drained in between so no two ever share a
// delivery — and returns a transcript of everything the far-side
// application observed plus the routers' counters.
func burstCampaign(t *testing.T, batched bool) string {
	return tracedBurstCampaign(t, batched, 0, func(i int) int {
		// Runs of two and three same-size packets; a different
		// TotalLen breaks a run.
		switch {
		case i%5 == 4:
			return 1200
		case i%3 == 2:
			return 200
		}
		return 64
	})
}

// tracedBurstCampaign is burstCampaign with packet i carrying a
// payload of size(i) bytes and each router tracing one in sampleEvery
// packets into a ring of its own (none at 0); the transcript ends with
// every entry recorded, A's then B's.
func tracedBurstCampaign(t *testing.T, batched bool, sampleEvery int, size func(i int) int) string {
	t.Helper()
	var traceA, traceB *telemetry.TraceRing
	if sampleEvery > 0 {
		traceA, traceB = telemetry.NewTraceRing(64, sampleEvery), telemetry.NewTraceRing(64, sampleEvery)
	}
	sim := simnet.NewSim(time.Unix(0, 0))
	ra, err := New(Config{IA: asA, Key: key(asA), Net: sim, Trace: traceA})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := New(Config{IA: asB, Key: key(asB), Net: sim, Trace: traceB})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	defer rb.Close()
	t.Cleanup(func() { checkConserved(t, ra); checkConserved(t, rb) })
	aAddr, _ := ra.AddInterface(1)
	bAddr, _ := rb.AddInterface(1)
	_ = ra.ConnectInterface(1, bAddr, nil)
	_ = rb.ConnectInterface(1, aAddr, nil)

	var log strings.Builder
	host := sim.AllocAddr()
	recv, err := sim.Listen(netip.AddrPortFrom(host, 40000), func(pkt []byte, _ netip.AddrPort) {
		fmt.Fprintf(&log, "%x\n", pkt)
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := sim.Listen(netip.AddrPort{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	mk := func(i, payloadLen int) []byte {
		pkt := &slayers.Packet{
			Hdr: slayers.SCION{
				DstIA: asB, SrcIA: asA,
				DstHost: host,
				SrcHost: src.LocalAddr().Addr(),
				Path:    corePath(t),
			},
			UDP:     &slayers.UDP{SrcPort: src.LocalAddr().Port(), DstPort: 40000},
			Payload: []byte(fmt.Sprintf("%0*d", payloadLen, i)),
		}
		raw, err := pkt.Serialize(nil)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	const n = 40
	pkts := make([][]byte, n)
	dests := make([]netip.AddrPort, n)
	for i := 0; i < n; i++ {
		raw := mk(i, size(i))
		if i%7 == 0 {
			raw[len(raw)-1] ^= 0x01 // corrupt the checksum
		}
		pkts[i] = raw
		dests[i] = ra.LocalAddr()
	}
	pkts[n-1] = []byte("runt") // undecodable tail
	if batched {
		if err := src.SendBatch(pkts, dests); err != nil {
			t.Fatal(err)
		}
		sim.Run()
	} else {
		for i, pkt := range pkts {
			if err := src.Send(pkt, dests[i]); err != nil {
				t.Fatal(err)
			}
			sim.Run()
		}
	}
	_ = recv
	fmt.Fprintf(&log, "A: fwd=%d parse=%d recv=%d\n",
		ra.Metrics().Forwarded.Load(), ra.Metrics().ParseFailures.Load(), ra.Metrics().Received.Load())
	fmt.Fprintf(&log, "B: del=%d parse=%d recv=%d\n",
		rb.Metrics().Delivered.Load(), rb.Metrics().ParseFailures.Load(), rb.Metrics().Received.Load())
	for _, ring := range []*telemetry.TraceRing{traceA, traceB} {
		for _, e := range ring.Snapshot() {
			// Not the time: sent one at a time, packets reach the
			// routers later than the burst does.
			fmt.Fprintf(&log, "trace %v in=%d out=%d hop=%d %v\n", addr.IA(e.IA), e.Ingress, e.Egress, e.Hop, e.Verdict)
		}
	}
	return log.String()
}

// TestMixedBurstMatchesSingles holds the burst fast path to the
// per-packet pipeline: one SendBatch of the mixed burst and the same
// packets sent one at a time must give the far-side application the
// exact same bytes in the exact same order, and both routers the same
// counters.
func TestMixedBurstMatchesSingles(t *testing.T) {
	singles := strings.Split(burstCampaign(t, false), "\n")
	// 6 corrupted checksums and the runt fail at A; B sees the rest.
	if n := len(singles); n != 36 || singles[n-3] != "A: fwd=33 parse=7 recv=40" ||
		singles[n-2] != "B: del=33 parse=0 recv=33" {
		t.Fatalf("per-packet reference is not the expected mix: %d lines, counters %q", n, singles[len(singles)-3:])
	}
	burst := strings.Split(burstCampaign(t, true), "\n")
	if len(burst) != len(singles) {
		t.Fatalf("burst transcript has %d lines, singles %d; counters %q", len(burst), len(singles), burst[len(burst)-3:])
	}
	for i := range singles {
		if burst[i] != singles[i] {
			t.Fatalf("line %d diverged:\n singles: %.160s\n burst:   %.160s", i, singles[i], burst[i])
		}
	}
}

// TestMixedBurstTraceMatchesSingles holds per-run accounting to the
// packet-by-packet sends: in runs of four same-size packets, where a
// corrupted checksum lands behind followers of its own run, and with a
// trace ring sampling every packet, and every fourth, the burst records
// the same trace entries in the same order as one Send at a time, and
// both routers stay conserved.
func TestMixedBurstTraceMatchesSingles(t *testing.T) {
	runsOfFour := func(i int) int { return []int{64, 200, 1200}[i/4%3] }
	for _, every := range []int{1, 4} {
		singles := tracedBurstCampaign(t, false, every, runsOfFour)
		if n := strings.Count(singles, "\ntrace "); n == 0 {
			t.Fatalf("every %d: nothing traced", every)
		}
		if burst := tracedBurstCampaign(t, true, every, runsOfFour); burst != singles {
			t.Errorf("every %d: burst transcript differs from singles:\n%s\n---\n%s", every, burst, singles)
		}
	}
}
