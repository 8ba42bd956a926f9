// Package ca implements the open-source SCION certificate authority the
// SCIERA team built on the smallstep framework (paper Section 4.5): an
// online CA that issues intentionally short-lived AS certificates from
// certificate signing requests and a renewal client that keeps an AS's
// certificate fresh without operator involvement.
//
// Before SCIERA, certificate issuance relied on a proprietary CA that the
// open-source stack could not use; this package is the interoperable
// replacement. Issuance policy: the CSR subject must name an AS that the
// CA is authoritative for (same ISD), and re-issuance is rate-limited
// only by the request channel — renewal is expected to be frequent.
package ca

import (
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/x509"
	"errors"
	"fmt"
	"sync"
	"time"

	"sciera/internal/addr"
	"sciera/internal/cppki"
)

// CA is an online certificate authority for one ISD.
type CA struct {
	IA       addr.IA // the AS operating the CA
	ISD      addr.ISD
	Cert     *x509.Certificate
	Key      *cppki.KeyPair
	Validity time.Duration // validity of issued AS certs (short!)

	// Now is the CA's clock: the transport clock of the network it
	// serves (virtual time on the simulator).
	Now func() time.Time

	mu     sync.Mutex
	issued int
}

// New creates a CA from its certificate and key, issuing on the given
// clock. Validity is the lifetime of issued AS certificates; the paper
// reports "typically just a few days" in production.
func New(ia addr.IA, cert *x509.Certificate, key *cppki.KeyPair, validity time.Duration, now func() time.Time) *CA {
	return &CA{
		IA:       ia,
		ISD:      ia.ISD(),
		Cert:     cert,
		Key:      key,
		Validity: validity,
		Now:      now,
	}
}

// Errors.
var (
	ErrWrongISD = errors.New("ca: subject outside the CA's ISD")
	ErrBadCSR   = errors.New("ca: invalid certificate signing request")
)

// NewCSR builds a certificate signing request for an AS keyed by key.
func NewCSR(ia addr.IA, key *cppki.KeyPair) ([]byte, error) {
	tmpl := &x509.CertificateRequest{}
	tmpl.Subject.CommonName = ia.String()
	der, err := x509.CreateCertificateRequest(rand.Reader, tmpl, key.Private)
	if err != nil {
		return nil, fmt.Errorf("ca: creating CSR: %w", err)
	}
	return der, nil
}

// Issue validates a CSR and returns a freshly issued AS certificate chain.
func (c *CA) Issue(csrDER []byte) (cppki.Chain, error) {
	csr, err := x509.ParseCertificateRequest(csrDER)
	if err != nil {
		return cppki.Chain{}, fmt.Errorf("%w: %v", ErrBadCSR, err)
	}
	if err := csr.CheckSignature(); err != nil {
		return cppki.Chain{}, fmt.Errorf("%w: proof of possession failed: %v", ErrBadCSR, err)
	}
	ia, err := addr.ParseIA(csr.Subject.CommonName)
	if err != nil {
		return cppki.Chain{}, fmt.Errorf("%w: subject %q: %v", ErrBadCSR, csr.Subject.CommonName, err)
	}
	if ia.ISD() != c.ISD {
		return cppki.Chain{}, fmt.Errorf("%w: %v not in ISD %d", ErrWrongISD, ia, c.ISD)
	}
	pub, ok := csr.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		return cppki.Chain{}, fmt.Errorf("%w: key type %T", ErrBadCSR, csr.PublicKey)
	}
	now := c.Now()
	// Backdate slightly to tolerate clock skew between CA and subject —
	// a real issue the SCIERA deployment hit ("time synchronization
	// issues", Appendix C).
	cert, err := cppki.NewASCert(ia, pub, c.Cert, c.Key, now.Add(-time.Minute), c.Validity+time.Minute)
	if err != nil {
		return cppki.Chain{}, err
	}
	c.mu.Lock()
	c.issued++
	c.mu.Unlock()
	return cppki.Chain{AS: cert, CA: c.Cert}, nil
}

// Issued returns the number of certificates issued.
func (c *CA) Issued() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.issued
}

// Renewer keeps an AS certificate fresh by re-issuing through a CA when
// the remaining validity drops below the renewal threshold. It embodies
// the "fully automated certificate issuance and renewal" requirement of
// Section 4.5.
type Renewer struct {
	IA  addr.IA
	Key *cppki.KeyPair
	// Issue submits a CSR for signing; in production this is an RPC to
	// the ISD CA, in tests a direct call.
	Issue func(csr []byte) (cppki.Chain, error)
	// RenewBefore is the remaining-validity threshold that triggers
	// renewal (default: half the certificate lifetime).
	RenewBefore time.Duration
	Now         func() time.Time

	mu    sync.Mutex
	chain cppki.Chain
	count int
}

// NewRenewer creates a renewer that judges validity on the given clock;
// call Renew once to obtain the initial certificate.
func NewRenewer(ia addr.IA, key *cppki.KeyPair, issue func([]byte) (cppki.Chain, error), now func() time.Time) *Renewer {
	return &Renewer{IA: ia, Key: key, Issue: issue, Now: now}
}

// Chain returns the current certificate chain.
func (r *Renewer) Chain() cppki.Chain {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.chain
}

// Renewals returns how many issuances have happened.
func (r *Renewer) Renewals() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Renew forces an immediate issuance.
func (r *Renewer) Renew() error {
	csr, err := NewCSR(r.IA, r.Key)
	if err != nil {
		return err
	}
	chain, err := r.Issue(csr)
	if err != nil {
		return fmt.Errorf("ca: renewal for %v: %w", r.IA, err)
	}
	r.mu.Lock()
	r.chain = chain
	r.count++
	r.mu.Unlock()
	return nil
}

// NeedsRenewal reports whether the certificate should be renewed now.
func (r *Renewer) NeedsRenewal() bool {
	r.mu.Lock()
	chain := r.chain
	threshold := r.RenewBefore
	r.mu.Unlock()
	if chain.AS == nil {
		return true
	}
	if threshold == 0 {
		threshold = chain.AS.NotAfter.Sub(chain.AS.NotBefore) / 2
	}
	return r.Now().After(chain.AS.NotAfter.Add(-threshold))
}

// Tick renews if needed; the orchestrator calls this periodically.
func (r *Renewer) Tick() (renewed bool, err error) {
	if !r.NeedsRenewal() {
		return false, nil
	}
	if err := r.Renew(); err != nil {
		return false, err
	}
	return true, nil
}
