package control

import (
	"crypto/x509"
	"math"
	"net/netip"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/beacon"
	"sciera/internal/ca"
	"sciera/internal/cppki"
	"sciera/internal/pathdb"
	"sciera/internal/scrypto"
	"sciera/internal/segment"
	"sciera/internal/simnet"
)

var (
	coreIA = addr.MustParseIA("71-1")
	leafIA = addr.MustParseIA("71-10")
)

// key returns the AS's prepared hop-key CMAC (a 16-byte key cannot fail).
func key(ia addr.IA) *scrypto.CMAC {
	m, _ := scrypto.NewHopCMAC(scrypto.DeriveHopKey([]byte(ia.String()), 0))
	return m
}

func testRegistry(t testing.TB) *beacon.Registry {
	t.Helper()
	seg1, err := segment.Originate(100, 1, coreIA, 1, leafIA, 5, 63, key(coreIA))
	if err != nil {
		t.Fatal(err)
	}
	if err := seg1.Extend(segment.ASEntry{IA: leafIA, Ingress: 2, ExpTime: 63}, key(leafIA)); err != nil {
		t.Fatal(err)
	}
	reg := &beacon.Registry{Core: pathdb.New(), Down: pathdb.New()}
	reg.Down.Insert(seg1)
	return reg
}

func startService(t testing.TB, sim *simnet.Sim, ia addr.IA, reg *beacon.Registry, trcs *cppki.Store, issuer *ca.CA) *Service {
	t.Helper()
	svc := &Service{IA: ia, Registry: func() *beacon.Registry { return reg }, TRCs: func() *cppki.Store { return trcs }, CA: issuer}
	if err := svc.Start(sim, netip.AddrPort{}); err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestPathsRequest(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	reg := testRegistry(t)
	svc := startService(t, sim, leafIA, reg, cppki.NewStore(), nil)
	defer svc.Close()

	cli, err := NewClient(sim, svc.Addr(), netip.AddrPort{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var got *Response
	cli.Do(&Request{Type: "paths", Dst: leafIA}, func(r *Response, err error) {
		if err != nil {
			t.Errorf("paths: %v", err)
			return
		}
		got = r
	})
	sim.RunFor(time.Second)
	if got == nil {
		t.Fatal("no response")
	}
	if len(got.Ups) != 1 || len(got.Downs) != 1 || len(got.Cores) != 0 {
		t.Fatalf("segments: ups=%d cores=%d downs=%d", len(got.Ups), len(got.Cores), len(got.Downs))
	}
	segs, err := DecodeSegments(got.Ups)
	if err != nil || len(segs) != 1 || segs[0].LastIA() != leafIA {
		t.Fatalf("decode: %v %v", segs, err)
	}
}

// TestPathsRequestEncodeFailure: a stored segment that cannot be
// serialized (JSON has no NaN) fails the whole request. Dropping it and
// answering with the rest — the old behaviour — hands the daemon a
// partial segment set it would combine and cache as if complete.
func TestPathsRequestEncodeFailure(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	reg := testRegistry(t)
	bad, err := segment.Originate(100, 2, coreIA, 3, leafIA, math.NaN(), 63, key(coreIA))
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Extend(segment.ASEntry{IA: leafIA, Ingress: 4, ExpTime: 63}, key(leafIA)); err != nil {
		t.Fatal(err)
	}
	reg.Down.Insert(bad)
	svc := startService(t, sim, leafIA, reg, cppki.NewStore(), nil)
	defer svc.Close()
	cli, _ := NewClient(sim, svc.Addr(), netip.AddrPort{})
	defer cli.Close()

	var got *Response
	cli.Do(&Request{Type: "paths", Dst: leafIA}, func(r *Response, err error) { got = r })
	sim.RunFor(time.Second)
	if got == nil || got.Error == "" {
		t.Fatalf("unencodable segment did not fail the request: %+v", got)
	}
	if len(got.Ups)+len(got.Cores)+len(got.Downs) != 0 || got.Gen != 0 {
		t.Fatalf("failed request still carries segments or a generation: %+v", got)
	}
	if n := svc.Metrics.Ups.Load() + svc.Metrics.Downs.Load(); n != 0 {
		t.Errorf("failed request counted %d served segments", n)
	}
}

// TestServiceMetrics: requests are counted by type, a conditional fetch
// that matches counts as NotModified and serves nothing, and reply bytes
// accumulate.
func TestServiceMetrics(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	svc := startService(t, sim, leafIA, testRegistry(t), cppki.NewStore(), nil)
	defer svc.Close()
	cli, _ := NewClient(sim, svc.Addr(), netip.AddrPort{})
	defer cli.Close()

	do := func(req *Request) *Response {
		var got *Response
		cli.Do(req, func(r *Response, err error) { got = r })
		sim.RunFor(time.Second)
		if got == nil {
			t.Fatalf("no response to %+v", req)
		}
		return got
	}
	first := do(&Request{Type: "paths", Dst: leafIA})
	m := svc.Metrics
	bytesAfterFirst := m.ResponseBytes.Load()
	if m.Paths.Load() != 1 || m.Ups.Load() != 1 || m.Downs.Load() != 1 || m.Cores.Load() != 0 || bytesAfterFirst == 0 {
		t.Fatalf("after one lookup: paths=%d ups=%d cores=%d downs=%d bytes=%d",
			m.Paths.Load(), m.Ups.Load(), m.Cores.Load(), m.Downs.Load(), bytesAfterFirst)
	}
	if again := do(&Request{Type: "paths", Dst: leafIA, Gen: first.Gen}); !again.NotModified {
		t.Fatal("conditional fetch at the current generation not answered NotModified")
	}
	if m.Paths.Load() != 2 || m.NotModified.Load() != 1 || m.Ups.Load() != 1 || m.Downs.Load() != 1 {
		t.Fatalf("after NotModified: paths=%d not_modified=%d ups=%d downs=%d",
			m.Paths.Load(), m.NotModified.Load(), m.Ups.Load(), m.Downs.Load())
	}
	do(&Request{Type: "trc", ISD: 71})
	do(&Request{Type: "renew"})
	do(&Request{Type: "bogus"})
	if m.TRC.Load() != 1 || m.Renew.Load() != 1 || m.Unknown.Load() != 1 || m.ResponseBytes.Load() <= bytesAfterFirst {
		t.Fatalf("trc=%d renew=%d unknown=%d bytes=%d", m.TRC.Load(), m.Renew.Load(), m.Unknown.Load(), m.ResponseBytes.Load())
	}
}

func TestTRCRequest(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	p, err := cppki.ProvisionISD(71, []addr.IA{coreIA}, []addr.IA{coreIA},
		cppki.ProvisionOptions{NotBefore: sim.Now().Add(-time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	trcs := cppki.NewStore()
	if err := trcs.AddTrusted(p.TRC, sim.Now()); err != nil {
		t.Fatal(err)
	}
	svc := startService(t, sim, coreIA, testRegistry(t), trcs, nil)
	defer svc.Close()
	cli, _ := NewClient(sim, svc.Addr(), netip.AddrPort{})
	defer cli.Close()

	var got *Response
	cli.Do(&Request{Type: "trc", ISD: 71}, func(r *Response, err error) { got = r })
	sim.RunFor(time.Second)
	if got == nil || got.Error != "" {
		t.Fatalf("resp = %+v", got)
	}
	trc, err := cppki.DecodeTRC(got.TRC)
	if err != nil || trc.ISD != 71 {
		t.Fatalf("trc: %v %v", trc, err)
	}

	// Unknown ISD errors.
	got = nil
	cli.Do(&Request{Type: "trc", ISD: 99}, func(r *Response, err error) { got = r })
	sim.RunFor(time.Second)
	if got == nil || got.Error == "" {
		t.Fatal("unknown ISD not rejected")
	}
}

func TestRenewRequest(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	p, err := cppki.ProvisionISD(71, []addr.IA{coreIA}, []addr.IA{coreIA},
		cppki.ProvisionOptions{NotBefore: time.Now().Add(-time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	caMat := p.CACerts[coreIA]
	caCert, err := x509.ParseCertificate(caMat.Cert)
	if err != nil {
		t.Fatal(err)
	}
	issuer := ca.New(coreIA, caCert, caMat.Key, 72*time.Hour)
	svc := startService(t, sim, coreIA, testRegistry(t), cppki.NewStore(), issuer)
	defer svc.Close()
	cli, _ := NewClient(sim, svc.Addr(), netip.AddrPort{})
	defer cli.Close()

	asKey, _ := cppki.GenerateKey()
	csr, err := ca.NewCSR(leafIA, asKey)
	if err != nil {
		t.Fatal(err)
	}
	var got *Response
	cli.Do(&Request{Type: "renew", CSR: csr}, func(r *Response, err error) { got = r })
	sim.RunFor(time.Second)
	if got == nil || got.Error != "" {
		t.Fatalf("resp = %+v", got)
	}
	asCert, err := x509.ParseCertificate(got.ASCert)
	if err != nil {
		t.Fatal(err)
	}
	caGot, err := x509.ParseCertificate(got.CACert)
	if err != nil {
		t.Fatal(err)
	}
	trcs := cppki.NewStore()
	_ = trcs.AddTrusted(p.TRC, time.Now())
	trc, _ := trcs.Get(71)
	if err := cppki.VerifyChain(cppki.Chain{AS: asCert, CA: caGot}, trc, leafIA, time.Now()); err != nil {
		t.Fatalf("issued chain invalid: %v", err)
	}

	// Renew on a CA-less service errors.
	svc2 := startService(t, sim, leafIA, testRegistry(t), cppki.NewStore(), nil)
	defer svc2.Close()
	cli2, _ := NewClient(sim, svc2.Addr(), netip.AddrPort{})
	defer cli2.Close()
	got = nil
	cli2.Do(&Request{Type: "renew", CSR: csr}, func(r *Response, err error) { got = r })
	sim.RunFor(time.Second)
	if got == nil || got.Error == "" {
		t.Fatal("renew on CA-less service accepted")
	}
}

func TestTRCUpdateChainOverNetwork(t *testing.T) {
	// Section 3.3's governance evolution: the ISD's core membership
	// changes, a successor TRC is quorum-signed, the control service
	// serves it, and clients verify the chain — rejecting a rogue one.
	sim := simnet.NewSim(time.Unix(0, 0))
	now := time.Now()
	p, err := cppki.ProvisionISD(71, []addr.IA{coreIA}, []addr.IA{coreIA},
		cppki.ProvisionOptions{NotBefore: now.Add(-time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	trcs := cppki.NewStore()
	if err := trcs.AddTrusted(p.TRC, now); err != nil {
		t.Fatal(err)
	}
	svc := startService(t, sim, coreIA, testRegistry(t), trcs, nil)
	defer svc.Close()
	cli, _ := NewClient(sim, svc.Addr(), netip.AddrPort{})
	defer cli.Close()

	// The client bootstraps trust from the base TRC.
	clientStore := cppki.NewStore()
	fetch := func() *cppki.TRC {
		var got *Response
		cli.Do(&Request{Type: "trc", ISD: 71}, func(r *Response, err error) { got = r })
		sim.RunFor(time.Second)
		if got == nil || got.Error != "" {
			t.Fatalf("trc fetch: %+v", got)
		}
		trc, err := cppki.DecodeTRC(got.TRC)
		if err != nil {
			t.Fatal(err)
		}
		return trc
	}
	if err := clientStore.AddTrusted(fetch(), now); err != nil {
		t.Fatal(err)
	}

	// Governance event: a new core AS joins; the authoritative roots
	// quorum-sign the successor, which the CS starts serving.
	newCore := addr.MustParseIA("71-2:0:77")
	next, err := cppki.UpdateTRC(p.TRC, p.RootKeys, []addr.IA{coreIA, newCore}, now)
	if err != nil {
		t.Fatal(err)
	}
	if err := trcs.Update(next, now); err != nil {
		t.Fatal(err)
	}
	served := fetch()
	if served.Serial != 2 || !served.IsCore(newCore) {
		t.Fatalf("served TRC = %s", served.ID())
	}
	// The client verifies the chain from its trusted base.
	if err := clientStore.Update(served, now); err != nil {
		t.Fatalf("chained update rejected: %v", err)
	}

	// A rogue successor (signed by the wrong keys) must not enter the
	// client's store even if a compromised CS served it.
	rogueKeys := make([]*cppki.KeyPair, len(p.RootKeys))
	for i := range rogueKeys {
		k, _ := cppki.GenerateKey()
		rogueKeys[i] = k
	}
	rogue, err := cppki.UpdateTRC(served, rogueKeys, []addr.IA{newCore}, now)
	if err != nil {
		t.Fatal(err)
	}
	if err := clientStore.Update(rogue, now); err == nil {
		t.Fatal("rogue TRC accepted")
	}
}

func TestClientTimeout(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	// Point the client at an address nobody listens on.
	cli, err := NewClient(sim, netip.MustParseAddrPort("10.200.0.1:9999"), netip.AddrPort{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Timeout = 500 * time.Millisecond
	var gotErr error
	fired := 0
	cli.Do(&Request{Type: "paths", Dst: leafIA}, func(r *Response, err error) {
		gotErr = err
		fired++
	})
	sim.RunFor(2 * time.Second)
	if fired != 1 {
		t.Fatalf("callback fired %d times", fired)
	}
	if gotErr == nil {
		t.Fatal("expected timeout error")
	}
}

func TestUnknownRequestType(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	svc := startService(t, sim, leafIA, testRegistry(t), cppki.NewStore(), nil)
	defer svc.Close()
	cli, _ := NewClient(sim, svc.Addr(), netip.AddrPort{})
	defer cli.Close()
	var got *Response
	cli.Do(&Request{Type: "bogus"}, func(r *Response, err error) { got = r })
	sim.RunFor(time.Second)
	if got == nil || got.Error == "" {
		t.Fatal("bogus request type not rejected")
	}
}

func TestServiceRequiresRegistry(t *testing.T) {
	sim := simnet.NewSim(time.Unix(0, 0))
	svc := &Service{IA: leafIA}
	if err := svc.Start(sim, netip.AddrPort{}); err == nil {
		t.Fatal("service without registry started")
	}
}
