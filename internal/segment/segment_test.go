package segment

import (
	"crypto/x509"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/cppki"
	"sciera/internal/scrypto"
)

var (
	coreIA = addr.MustParseIA("71-20965")
	midIA  = addr.MustParseIA("71-559")
	leafIA = addr.MustParseIA("71-2:0:5c")
)

func keyOf(ia addr.IA) scrypto.HopKey {
	return scrypto.DeriveHopKey([]byte(ia.String()), 0)
}

func keyFor(ia addr.IA) (scrypto.HopKey, bool) { return keyOf(ia), true }

// macOf returns the AS's prepared hop-key CMAC (a 16-byte key cannot fail).
func macOf(ia addr.IA) *scrypto.CMAC {
	m, _ := scrypto.NewHopCMAC(keyOf(ia))
	return m
}

// buildSeg constructs core -> mid -> leaf.
func buildSeg(t *testing.T) *Segment {
	t.Helper()
	s, err := Originate(1000, 0x42, coreIA, 1, midIA, 20, 63, macOf(coreIA))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Extend(ASEntry{
		IA: midIA, Next: leafIA, Ingress: 2, Egress: 3,
		LinkLatencyMS: 10, ExpTime: 63,
	}, macOf(midIA)); err != nil {
		t.Fatal(err)
	}
	if err := s.Extend(ASEntry{
		IA: leafIA, Ingress: 4, ExpTime: 63,
	}, macOf(leafIA)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildAndInspect(t *testing.T) {
	s := buildSeg(t)
	if s.Len() != 3 || s.FirstIA() != coreIA || s.LastIA() != leafIA {
		t.Errorf("shape: len=%d %v->%v", s.Len(), s.FirstIA(), s.LastIA())
	}
	if !s.ContainsIA(midIA) || s.ContainsIA(addr.MustParseIA("64-1")) {
		t.Error("ContainsIA wrong")
	}
	if e := s.EntryFor(midIA); e == nil || e.Egress != 3 {
		t.Errorf("EntryFor(mid) = %+v", e)
	}
	if got := s.LatencyMS(); got != 30 {
		t.Errorf("latency = %v", got)
	}
	if s.ID() == "" || s.String() == "" {
		t.Error("ID/String empty")
	}
}

func TestMACVerification(t *testing.T) {
	s := buildSeg(t)
	if err := s.VerifyMACs(keyFor); err != nil {
		t.Fatalf("valid segment rejected: %v", err)
	}
	// Tamper with an interface: the MAC check must fail at that entry.
	bad := s.Clone()
	bad.ASEntries[1].Egress = 9
	if err := bad.VerifyMACs(keyFor); err == nil {
		t.Error("tampered interface accepted")
	}
	// Tamper with an early MAC: breaks the chain for later entries even
	// if the tampered AS's own key is unknown to the verifier.
	bad2 := s.Clone()
	bad2.ASEntries[0].MAC[0] ^= 1
	err := bad2.VerifyMACs(func(ia addr.IA) (scrypto.HopKey, bool) {
		if ia == coreIA {
			return scrypto.HopKey{}, false // origin key unknown
		}
		return keyOf(ia), true
	})
	if err == nil {
		t.Error("chain tampering undetected by downstream ASes")
	}
	// Empty segment.
	var empty Segment
	if err := empty.VerifyMACs(keyFor); err == nil {
		t.Error("empty segment verified")
	}
}

func TestExtendValidation(t *testing.T) {
	s, err := Originate(1, 1, coreIA, 1, midIA, 5, 63, macOf(coreIA))
	if err != nil {
		t.Fatal(err)
	}
	// Wrong AS (previous entry points to midIA).
	if err := s.Extend(ASEntry{IA: leafIA, Ingress: 1}, macOf(leafIA)); err == nil {
		t.Error("extension by wrong AS accepted")
	}
	// Missing ingress interface.
	if err := s.Extend(ASEntry{IA: midIA}, macOf(midIA)); err == nil {
		t.Error("extension without ingress accepted")
	}
	var empty Segment
	if err := empty.Extend(ASEntry{IA: midIA, Ingress: 1}, macOf(midIA)); err == nil {
		t.Error("extending empty segment accepted")
	}
}

func TestBetaChain(t *testing.T) {
	s := buildSeg(t)
	beta := s.Beta0
	for i := range s.ASEntries {
		got, err := s.betaAt(i)
		if err != nil || got != beta {
			t.Fatalf("betaAt(%d) = %v, %v; want %v", i, got, err, beta)
		}
		beta = scrypto.UpdateBeta(beta, s.ASEntries[i].MAC)
	}
	if s.BetaFinal() != beta {
		t.Errorf("BetaFinal = %#x want %#x", s.BetaFinal(), beta)
	}
}

func TestHopFields(t *testing.T) {
	s := buildSeg(t)
	hops := s.HopFields()
	if len(hops) != 3 {
		t.Fatalf("hops = %d", len(hops))
	}
	if hops[0].ConsIngress != 0 || hops[0].ConsEgress != 1 {
		t.Errorf("origin hop = %+v", hops[0])
	}
	if hops[2].ConsIngress != 4 || hops[2].ConsEgress != 0 {
		t.Errorf("terminal hop = %+v", hops[2])
	}
	if hops[1].MAC != s.ASEntries[1].MAC {
		t.Error("MAC not carried over")
	}
}

func TestEncodeDecode(t *testing.T) {
	s := buildSeg(t)
	b, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != s.ID() {
		t.Errorf("ID mismatch after decode")
	}
	if err := got.VerifyMACs(keyFor); err != nil {
		t.Errorf("decoded segment MACs invalid: %v", err)
	}
	if _, err := Decode([]byte("{")); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestExpiry(t *testing.T) {
	s := buildSeg(t)
	exp := s.Expiry()
	created := time.Unix(1000, 0)
	if !exp.After(created) {
		t.Error("expiry before creation")
	}
	// ExpTime 63 => (63+1)*337.5s = 6h.
	if want := created.Add(6 * time.Hour); !exp.Equal(want) {
		t.Errorf("expiry = %v, want %v", exp, want)
	}
}

// TestExpiryMaxExpTime: ExpTime 255 is the 24 h maximum. The +1 used to
// be taken in uint8, wrapping to 0, so such a segment expired at its own
// timestamp and pathdb.DeleteExpired dropped it at birth.
func TestExpiryMaxExpTime(t *testing.T) {
	s := buildSeg(t)
	for i := range s.ASEntries {
		s.ASEntries[i].ExpTime = 255
	}
	created := time.Unix(1000, 0)
	if want := created.Add(256 * 337500 * time.Millisecond); !s.Expiry().Equal(want) {
		t.Errorf("expiry at ExpTime 255 = %v, want %v", s.Expiry(), want)
	}
	// The minimum over hops still rules, and 63 is unchanged.
	s.ASEntries[1].ExpTime = 63
	if want := created.Add(6 * time.Hour); !s.Expiry().Equal(want) {
		t.Errorf("expiry with one hop at 63 = %v, want %v", s.Expiry(), want)
	}
}

// TestExtendedRouteID: the route ID computed ahead of an extension is
// the one the built extension reports, beyond the stack buffer too.
func TestExtendedRouteID(t *testing.T) {
	s := &Segment{Timestamp: 1, ASEntries: []ASEntry{{IA: coreIA, Egress: 1, Next: midIA}}}
	for i := 0; i < 12; i++ {
		next := ASEntry{IA: addr.IA(100 + i), Ingress: uint16(2 + i), Egress: uint16(50 + i)}
		ahead := s.ExtendedRouteID(next.IA, next.Ingress, next.Egress)
		s.ASEntries = append(s.ASEntries, next)
		if got := s.RouteID(); got != ahead {
			t.Fatalf("len %d: ExtendedRouteID %s, built RouteID %s", s.Len(), ahead, got)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := buildSeg(t)
	s.ASEntries[0].Peers = []PeerEntry{{Peer: midIA, LocalIf: 9}}
	c := s.Clone()
	c.ASEntries[0].Peers[0].LocalIf = 77
	c.ASEntries[1].Egress = 99
	if s.ASEntries[0].Peers[0].LocalIf != 9 || s.ASEntries[1].Egress != 3 {
		t.Error("Clone is shallow")
	}
}

func TestSignatures(t *testing.T) {
	p, err := cppki.ProvisionISD(71, []addr.IA{coreIA}, []addr.IA{coreIA}, cppki.ProvisionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	caMat := p.CACerts[coreIA]
	caCert, err := x509.ParseCertificate(caMat.Cert)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	signerFor := func(ia addr.IA) *cppki.Signer {
		key, _ := cppki.GenerateKey()
		cert, err := cppki.NewASCert(ia, key.Public(), caCert, caMat.Key, now.Add(-time.Second), time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return &cppki.Signer{IA: ia, Key: key, Chain: cppki.Chain{AS: cert, CA: caCert}}
	}

	s, err := Originate(uint32(now.Unix()), 7, coreIA, 1, midIA, 5, 63, macOf(coreIA))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SignLast(signerFor(coreIA)); err != nil {
		t.Fatal(err)
	}
	if err := s.Extend(ASEntry{IA: midIA, Next: leafIA, Ingress: 2, Egress: 3, ExpTime: 63}, macOf(midIA)); err != nil {
		t.Fatal(err)
	}
	if err := s.SignLast(signerFor(midIA)); err != nil {
		t.Fatal(err)
	}
	if err := s.Extend(ASEntry{IA: leafIA, Ingress: 4, ExpTime: 63}, macOf(leafIA)); err != nil {
		t.Fatal(err)
	}
	if err := s.SignLast(signerFor(leafIA)); err != nil {
		t.Fatal(err)
	}

	trcs := cppki.NewStore()
	if err := trcs.AddTrusted(p.TRC, now); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifySignatures(trcs, now); err != nil {
		t.Fatalf("valid signatures rejected: %v", err)
	}
	if got := s.SignerIAs(); len(got) != 3 {
		t.Errorf("signers = %v", got)
	}

	// Tampering with a signed field breaks verification.
	bad := s.Clone()
	bad.ASEntries[1].Egress = 9
	if err := bad.VerifySignatures(trcs, now); err == nil {
		t.Error("tampered signed entry accepted")
	}

	// Signature from the wrong AS.
	wrong := s.Clone()
	wrong.ASEntries[2].Signature = wrong.ASEntries[1].Signature
	if err := wrong.VerifySignatures(trcs, now); err == nil {
		t.Error("transplanted signature accepted")
	}

	// Unsigned entry.
	unsigned := s.Clone()
	unsigned.ASEntries[0].Signature = nil
	if err := unsigned.VerifySignatures(trcs, now); err == nil {
		t.Error("unsigned entry accepted")
	}

	// SignLast by mismatched signer.
	if err := s.SignLast(signerFor(midIA)); err == nil {
		t.Error("signer/entry mismatch accepted")
	}
}

func TestTypeString(t *testing.T) {
	if Core.String() != "core" || Down.String() != "down" || Up.String() != "up" {
		t.Error("Type.String broken")
	}
	if Type(9).String() == "" {
		t.Error("unknown type should format")
	}
}

func BenchmarkExtend(b *testing.B) {
	key := macOf(midIA)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := Originate(1, 1, coreIA, 1, midIA, 5, 63, macOf(coreIA))
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Extend(ASEntry{IA: midIA, Next: leafIA, Ingress: 2, Egress: 3, ExpTime: 63}, key); err != nil {
			b.Fatal(err)
		}
	}
}
