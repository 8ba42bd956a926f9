package ca

import (
	"crypto/x509"
	"sync"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/cppki"
)

var (
	caIA   = addr.MustParseIA("71-20965")
	leafIA = addr.MustParseIA("71-2:0:5c")
)

func newCA(t *testing.T, validity time.Duration) (*CA, *cppki.ProvisionedISD) {
	t.Helper()
	p, err := cppki.ProvisionISD(71, []addr.IA{caIA}, []addr.IA{caIA},
		cppki.ProvisionOptions{NotBefore: time.Now().Add(-time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	mat := p.CACerts[caIA]
	cert, err := x509.ParseCertificate(mat.Cert)
	if err != nil {
		t.Fatal(err)
	}
	return New(caIA, cert, mat.Key, validity, time.Now), p
}

func TestIssueFromCSR(t *testing.T) {
	c, p := newCA(t, 72*time.Hour)
	key, _ := cppki.GenerateKey()
	csr, err := NewCSR(leafIA, key)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := c.Issue(csr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cppki.VerifyChain(chain, p.TRC, leafIA, time.Now()); err != nil {
		t.Fatalf("issued chain does not verify: %v", err)
	}
	if c.Issued() != 1 {
		t.Errorf("issued = %d", c.Issued())
	}
	ia, err := cppki.SubjectIA(chain.AS)
	if err != nil || ia != leafIA {
		t.Errorf("subject = %v, %v", ia, err)
	}
}

func TestIssueRejectsForeignISD(t *testing.T) {
	c, _ := newCA(t, 72*time.Hour)
	key, _ := cppki.GenerateKey()
	csr, err := NewCSR(addr.MustParseIA("64-559"), key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Issue(csr); err == nil {
		t.Error("CSR for foreign ISD accepted")
	}
}

func TestIssueRejectsGarbageCSR(t *testing.T) {
	c, _ := newCA(t, 72*time.Hour)
	if _, err := c.Issue([]byte("not a csr")); err == nil {
		t.Error("garbage CSR accepted")
	}
}

func TestShortLivedCertsExpire(t *testing.T) {
	c, p := newCA(t, 72*time.Hour)
	key, _ := cppki.GenerateKey()
	csr, _ := NewCSR(leafIA, key)
	chain, err := c.Issue(csr)
	if err != nil {
		t.Fatal(err)
	}
	// Past the short validity the chain no longer verifies — the
	// deployment property that forces automated renewal.
	if err := cppki.VerifyChain(chain, p.TRC, leafIA, time.Now().Add(80*time.Hour)); err == nil {
		t.Error("cert valid beyond its short lifetime")
	}
}

func TestRenewerLifecycle(t *testing.T) {
	c, p := newCA(t, 72*time.Hour)
	// Virtual clock shared by CA and renewer.
	var mu sync.Mutex
	now := time.Now()
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	c.Now = clock

	key, _ := cppki.GenerateKey()
	r := NewRenewer(leafIA, key, c.Issue, clock)

	if !r.NeedsRenewal() {
		t.Fatal("fresh renewer should need initial issuance")
	}
	renewed, err := r.Tick()
	if err != nil || !renewed {
		t.Fatalf("initial tick: %v %v", renewed, err)
	}
	if r.Renewals() != 1 {
		t.Errorf("renewals = %d", r.Renewals())
	}
	if err := cppki.VerifyChain(r.Chain(), p.TRC, leafIA, clock()); err != nil {
		t.Fatalf("chain invalid: %v", err)
	}

	// Within the first half of validity: no renewal.
	advance(10 * time.Hour)
	if renewed, _ := r.Tick(); renewed {
		t.Error("renewed too early")
	}

	// Past half validity: renew.
	advance(30 * time.Hour)
	renewed, err = r.Tick()
	if err != nil || !renewed {
		t.Fatalf("renewal tick: %v %v", renewed, err)
	}
	if r.Renewals() != 2 {
		t.Errorf("renewals = %d", r.Renewals())
	}
	// The renewed chain must be valid *now* even though the original
	// would soon expire.
	advance(40 * time.Hour)
	if err := cppki.VerifyChain(r.Chain(), p.TRC, leafIA, clock()); err != nil {
		t.Fatalf("renewed chain invalid: %v", err)
	}
}

func TestRenewerSurvivesLongOperation(t *testing.T) {
	// Simulate months of operation with periodic ticks; the certificate
	// must stay continuously valid (Section 4.5: "certificate
	// expirations ... were infrequent" only because renewal works).
	c, p := newCA(t, 48*time.Hour)
	var mu sync.Mutex
	now := time.Now()
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	c.Now = clock
	key, _ := cppki.GenerateKey()
	r := NewRenewer(leafIA, key, c.Issue, clock)

	for hour := 0; hour < 24*60; hour += 6 { // 60 days, 6-hour cron
		if _, err := r.Tick(); err != nil {
			t.Fatalf("tick at hour %d: %v", hour, err)
		}
		if err := cppki.VerifyChain(r.Chain(), p.TRC, leafIA, clock()); err != nil {
			t.Fatalf("chain invalid at hour %d: %v", hour, err)
		}
		mu.Lock()
		now = now.Add(6 * time.Hour)
		mu.Unlock()
	}
	if r.Renewals() < 50 {
		t.Errorf("expected ~60 renewals over 60 days, got %d", r.Renewals())
	}
}

func TestRenewerPropagatesIssueErrors(t *testing.T) {
	key, _ := cppki.GenerateKey()
	r := NewRenewer(leafIA, key, func([]byte) (cppki.Chain, error) {
		return cppki.Chain{}, ErrBadCSR
	}, time.Now)
	if err := r.Renew(); err == nil {
		t.Error("issue error swallowed")
	}
}
