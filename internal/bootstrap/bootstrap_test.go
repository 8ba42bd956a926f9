package bootstrap

import (
	"crypto/x509"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/cppki"
	"sciera/internal/simnet"
)

var testIA = addr.MustParseIA("71-2:0:5c")

type fixture struct {
	sim    *simnet.Sim
	lan    *LAN
	server *Server
	trcs   *cppki.Store
	signer *cppki.Signer
}

func newFixture(t *testing.T, cfg LANConfig) *fixture {
	t.Helper()
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	// LAN exchanges take 0.4ms one way; like a campus network.
	sim.Latency = func(_, _ netip.AddrPort, _ int) (time.Duration, bool) {
		return 400 * time.Microsecond, true
	}

	// PKI for ISD 71 and an AS signer.
	p, err := cppki.ProvisionISD(71, []addr.IA{testIA}, []addr.IA{testIA},
		cppki.ProvisionOptions{NotBefore: sim.Now().Add(-time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	trcs := cppki.NewStore()
	if err := trcs.AddTrusted(p.TRC, sim.Now()); err != nil {
		t.Fatal(err)
	}
	caMat := p.CACerts[testIA]
	caCert, err := x509.ParseCertificate(caMat.Cert)
	if err != nil {
		t.Fatal(err)
	}
	asKey, _ := cppki.GenerateKey()
	asCert, err := cppki.NewASCert(testIA, asKey.Public(), caCert, caMat.Key,
		sim.Now().Add(-time.Minute), 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	signer := &cppki.Signer{IA: testIA, Key: asKey, Chain: cppki.Chain{AS: asCert, CA: caCert}}

	server := &Server{
		Topology: TopologyFile{
			IA:          testIA,
			RouterAddr:  netip.MustParseAddrPort("10.9.9.1:30001"),
			ControlAddr: netip.MustParseAddrPort("10.9.9.2:30002"),
		},
		Signer: signer,
		TRCs:   trcs,
	}
	if err := server.Start(sim, netip.AddrPortFrom(sim.AllocAddr(), PortBootstrap)); err != nil {
		t.Fatal(err)
	}

	cfg.BootstrapServer = server.Addr()
	if cfg.SearchDomain == "" {
		cfg.SearchDomain = "cs.example.edu"
	}
	lan, err := StartLAN(sim, sim.AllocAddr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{sim: sim, lan: lan, server: server, trcs: trcs, signer: signer}
}

func allLAN() LANConfig {
	return LANConfig{
		DHCPVIVO: true, DHCPOption72: true, DHCPv6VSIO: true,
		NDPRA: true, DNSSRV: true, DNSNAPTR: true, DNSSD: true, MDNS: true,
	}
}

// bootstrapSync runs Bootstrap inside the simulator loop.
func bootstrapSync(t *testing.T, f *fixture, mechs []Mechanism, env Env) (*Result, error) {
	t.Helper()
	cli, err := NewClient(f.sim, netip.AddrPort{}, env)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var res *Result
	var rerr error
	done := false
	cli.Bootstrap(mechs, func(r *Result, err error) {
		res, rerr, done = r, err, true
	})
	f.sim.RunFor(time.Minute)
	if !done {
		t.Fatal("bootstrap did not complete")
	}
	return res, rerr
}

func TestBootstrapEveryMechanism(t *testing.T) {
	for _, m := range AllMechanisms() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			f := newFixture(t, allLAN())
			env := Env{SearchDomain: "cs.example.edu", DNSResolver: f.lan.DNSAddr}
			res, err := bootstrapSync(t, f, []Mechanism{m}, env)
			if err != nil {
				t.Fatalf("%v: %v", m, err)
			}
			if res.Mechanism != m {
				t.Errorf("mechanism = %v", res.Mechanism)
			}
			if res.Hint != f.server.Addr() {
				t.Errorf("hint = %v, want %v", res.Hint, f.server.Addr())
			}
			if res.Topology.IA != testIA {
				t.Errorf("IA = %v", res.Topology.IA)
			}
			if res.Topology.RouterAddr.Port() != 30001 {
				t.Errorf("router addr = %v", res.Topology.RouterAddr)
			}
			if res.TRC == nil || res.TRC.ISD != 71 {
				t.Errorf("TRC = %+v", res.TRC)
			}
			if res.HintTime <= 0 || res.FetchTime <= 0 {
				t.Errorf("timings = %v / %v", res.HintTime, res.FetchTime)
			}
			// The full bootstrap is a handful of sub-millisecond LAN
			// round trips — imperceptible, as the paper requires.
			if total := res.HintTime + res.FetchTime; total > 100*time.Millisecond {
				t.Errorf("bootstrap took %v", total)
			}
		})
	}
}

func TestBootstrapFallbackOrder(t *testing.T) {
	// LAN only provides mDNS; the client walks the whole preference
	// list and lands on the last mechanism.
	f := newFixture(t, LANConfig{MDNS: true})
	res, err := bootstrapSync(t, f, nil, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mechanism != MechMDNS {
		t.Errorf("mechanism = %v, want mDNS", res.Mechanism)
	}
}

func TestBootstrapFailsWithNoMechanisms(t *testing.T) {
	f := newFixture(t, LANConfig{})
	_, err := bootstrapSync(t, f, nil, Env{})
	if err == nil {
		t.Fatal("bootstrap succeeded on a hint-free network")
	}
}

func TestUnsignedTopologyRejected(t *testing.T) {
	f := newFixture(t, allLAN())
	f.server.Signer = nil
	_, err := bootstrapSync(t, f, []Mechanism{MechDHCPVIVO}, Env{})
	if err == nil {
		t.Fatal("unsigned topology accepted")
	}
	// Unless explicitly allowed.
	cli, err := NewClient(f.sim, netip.AddrPort{}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.AllowUnsigned = true
	var res *Result
	cli.Bootstrap([]Mechanism{MechDHCPVIVO}, func(r *Result, err2 error) {
		res = r
		err = err2
	})
	f.sim.RunFor(time.Minute)
	if err != nil || res == nil {
		t.Fatalf("AllowUnsigned bootstrap failed: %v", err)
	}
}

func TestTamperedTopologySignatureRejected(t *testing.T) {
	f := newFixture(t, allLAN())
	// Re-sign with a key that is NOT certified for this IA: build a
	// rogue signer with a self-provisioned foreign ISD.
	rogue, err := cppki.ProvisionISD(64, []addr.IA{addr.MustParseIA("64-1")},
		[]addr.IA{addr.MustParseIA("64-1")}, cppki.ProvisionOptions{NotBefore: f.sim.Now().Add(-time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	caMat := rogue.CACerts[addr.MustParseIA("64-1")]
	caCert, _ := x509.ParseCertificate(caMat.Cert)
	key, _ := cppki.GenerateKey()
	cert, err := cppki.NewASCert(testIA, key.Public(), caCert, caMat.Key,
		f.sim.Now().Add(-time.Minute), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	f.server.Signer = &cppki.Signer{IA: testIA, Key: key, Chain: cppki.Chain{AS: cert, CA: caCert}}
	_, err = bootstrapSync(t, f, []Mechanism{MechDHCPVIVO}, Env{})
	if err == nil {
		t.Fatal("topology signed by unanchored CA accepted")
	}
}

func TestDNSWithoutResolverFails(t *testing.T) {
	f := newFixture(t, allLAN())
	_, err := bootstrapSync(t, f, []Mechanism{MechDNSSRV}, Env{SearchDomain: "cs.example.edu"})
	if err == nil {
		t.Fatal("DNS mechanism without resolver succeeded")
	}
}

func TestHTTPFrontend(t *testing.T) {
	f := newFixture(t, allLAN())
	ts := httptest.NewServer(f.server)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/topology")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	msg, err := cppki.DecodeSignedMessage(body)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := DecodeTopology(msg.Payload)
	if err != nil || topo.IA != testIA {
		t.Fatalf("topology = %+v, %v", topo, err)
	}

	resp, err = http.Get(ts.URL + "/trcs/isd71")
	if err != nil {
		t.Fatal(err)
	}
	trcBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	trc, err := cppki.DecodeTRC(trcBody)
	if err != nil || trc.ISD != 71 {
		t.Fatalf("trc = %+v, %v", trc, err)
	}

	for path, want := range map[string]int{
		"/nope":        http.StatusNotFound,
		"/trcs/isd999": http.StatusNotFound,
		"/trcs/isdxx":  http.StatusBadRequest,
	} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, r.StatusCode, want)
		}
	}

	post, err := http.Post(ts.URL+"/topology", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d", post.StatusCode)
	}
}

func TestWireFormats(t *testing.T) {
	// DHCP round trip.
	m := &DHCPMessage{Op: dhcpDiscover, XID: 99, Options: map[uint8][]byte{7: {1, 2}}}
	got, err := DecodeDHCP(m.Encode())
	if err != nil || got.Op != dhcpDiscover || got.XID != 99 || string(got.Options[7]) != "\x01\x02" {
		t.Fatalf("DHCP round trip: %+v %v", got, err)
	}
	if _, err := DecodeDHCP([]byte("junk")); err == nil {
		t.Error("junk DHCP accepted")
	}

	// VIVO round trip + PEN check.
	hint := netip.MustParseAddrPort("10.1.2.3:8041")
	dec, err := DecodeVIVO(EncodeVIVO(hint))
	if err != nil || dec != hint {
		t.Fatalf("VIVO: %v %v", dec, err)
	}
	bad := EncodeVIVO(hint)
	bad[0] ^= 1
	if _, err := DecodeVIVO(bad); err == nil {
		t.Error("foreign PEN accepted")
	}

	// DHCPv6 round trip.
	m6 := &DHCPv6Message{Type: dhcp6Solicit, XID: 5, Options: map[uint16][]byte{Opt6VSIO: {1}}}
	got6, err := DecodeDHCPv6(m6.Encode())
	if err != nil || got6.Type != dhcp6Solicit || got6.XID != 5 {
		t.Fatalf("DHCPv6 round trip: %+v %v", got6, err)
	}

	// RA round trip.
	ra := &RouterAdvertisement{
		DNSServers:   []netip.AddrPort{netip.MustParseAddrPort("10.0.0.53:53")},
		SearchDomain: "example.edu",
	}
	gotRA, err := DecodeRA(ra.Encode())
	if err != nil || gotRA.SearchDomain != "example.edu" || len(gotRA.DNSServers) != 1 {
		t.Fatalf("RA round trip: %+v %v", gotRA, err)
	}
	if !IsRS(EncodeRS()) || IsRS([]byte("x")) {
		t.Error("RS detection broken")
	}
}

func TestMechanismStrings(t *testing.T) {
	for _, m := range AllMechanisms() {
		if m.String() == "" {
			t.Errorf("mechanism %d has no name", m)
		}
	}
	if Mechanism(99).String() == "" {
		t.Error("unknown mechanism should format")
	}
}

// rogueServer answers datagram GETs with arbitrary canned bodies,
// covering the client's authentication failure paths.
type rogueServer struct {
	conn      simnet.Conn
	responses map[string][]byte // path -> body (200); missing -> 404
}

func startRogue(t *testing.T, sim *simnet.Sim, responses map[string][]byte) netip.AddrPort {
	t.Helper()
	r := &rogueServer{responses: responses}
	conn, err := sim.Listen(netip.AddrPortFrom(sim.AllocAddr(), PortBootstrap),
		func(pkt []byte, from netip.AddrPort) {
			req := string(pkt)
			if !strings.HasPrefix(req, "GET ") {
				return
			}
			path := strings.TrimSpace(strings.TrimPrefix(req, "GET "))
			body, ok := r.responses[path]
			if !ok {
				_ = r.conn.Send([]byte("404 not here"), from)
				return
			}
			_ = r.conn.Send(append([]byte("200 "), body...), from)
		})
	if err != nil {
		t.Fatal(err)
	}
	r.conn = conn
	t.Cleanup(func() { conn.Close() })
	return conn.LocalAddr()
}

// fetchSync drives Client.Fetch against a given server.
func fetchSync(t *testing.T, sim *simnet.Sim, server netip.AddrPort) (*TopologyFile, *cppki.TRC, error) {
	t.Helper()
	cli, err := NewClient(sim, netip.AddrPort{}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var topo *TopologyFile
	var trc *cppki.TRC
	var ferr error
	done := false
	cli.Fetch(server, func(tp *TopologyFile, tr *cppki.TRC, err error) {
		topo, trc, ferr, done = tp, tr, err, true
	})
	sim.RunFor(time.Minute)
	if !done {
		t.Fatal("fetch did not complete")
	}
	return topo, trc, ferr
}

// TestFetchRejectsRogueServers covers each authentication failure of
// the bootstrap fetch pipeline: garbage signed-message framing, garbage
// topology payloads, missing and garbage TRCs.
func TestFetchRejectsRogueServers(t *testing.T) {
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))

	// Garbage signed message.
	srv := startRogue(t, sim, map[string][]byte{"/topology": []byte("{not json")})
	if _, _, err := fetchSync(t, sim, srv); err == nil {
		t.Error("garbage signed message accepted")
	}

	// Valid signed-message envelope holding a garbage topology.
	badTopo, err := (&cppki.SignedMessage{Payload: []byte("??")}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	srv = startRogue(t, sim, map[string][]byte{"/topology": badTopo})
	if _, _, err := fetchSync(t, sim, srv); err == nil {
		t.Error("garbage topology accepted")
	}

	// Plausible topology but no TRC to verify against (404).
	tf := TopologyFile{
		IA:          testIA,
		RouterAddr:  netip.MustParseAddrPort("10.1.1.1:30001"),
		ControlAddr: netip.MustParseAddrPort("10.1.1.2:30002"),
	}
	topoJSON, err := tf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	unsigned, err := (&cppki.SignedMessage{Payload: topoJSON}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	srv = startRogue(t, sim, map[string][]byte{"/topology": unsigned})
	if _, _, err := fetchSync(t, sim, srv); err == nil {
		t.Error("fetch without TRC accepted")
	}

	// Garbage TRC body.
	srv = startRogue(t, sim, map[string][]byte{
		"/topology":   unsigned,
		"/trcs/isd71": []byte("not a trc"),
	})
	if _, _, err := fetchSync(t, sim, srv); err == nil {
		t.Error("garbage TRC accepted")
	}
}

// FuzzBootstrapWire feeds the same bytes to every hint decoder a client
// runs on what the LAN sends it: DHCP, VIVO, DHCPv6 and router
// advertisements. None may panic; a message that decodes re-encodes to
// bytes that decode to the same message, and a VIVO payload's server
// address round-trips exactly.
func FuzzBootstrapWire(f *testing.F) {
	hint := netip.MustParseAddrPort("10.1.2.3:8041")
	f.Add((&DHCPMessage{Op: dhcpOffer, XID: 7, Options: map[uint8][]byte{OptVIVO: EncodeVIVO(hint)}}).Encode())
	f.Add(EncodeVIVO(netip.MustParseAddrPort("[fd00::53%eth0]:8041")))
	f.Add((&DHCPv6Message{Type: dhcp6Advertise, XID: 5, Options: map[uint16][]byte{Opt6VSIO: EncodeVIVO(hint)}}).Encode())
	f.Add((&RouterAdvertisement{DNSServers: []netip.AddrPort{hint}, SearchDomain: "example.edu"}).Encode())

	f.Fuzz(func(t *testing.T, b []byte) {
		if m, err := DecodeDHCP(b); err == nil {
			if again, err := DecodeDHCP(m.Encode()); err != nil || !reflect.DeepEqual(again, m) {
				t.Fatalf("DHCP %+v re-decodes as %+v (%v)", m, again, err)
			}
		}
		if ap, err := DecodeVIVO(b); err == nil {
			if again, err := DecodeVIVO(EncodeVIVO(ap)); err != nil || again != ap {
				t.Fatalf("VIVO %v re-decodes as %v (%v)", ap, again, err)
			}
		}
		if m, err := DecodeDHCPv6(b); err == nil {
			if again, err := DecodeDHCPv6(m.Encode()); err != nil || !reflect.DeepEqual(again, m) {
				t.Fatalf("DHCPv6 %+v re-decodes as %+v (%v)", m, again, err)
			}
		}
		if ra, err := DecodeRA(b); err == nil {
			if again, err := DecodeRA(ra.Encode()); err != nil || !reflect.DeepEqual(again, ra) {
				t.Fatalf("RA %+v re-decodes as %+v (%v)", ra, again, err)
			}
		}
	})
}
