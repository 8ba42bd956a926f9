package cppki

import (
	"crypto/ecdsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"
	"time"

	"sciera/internal/addr"
	"sciera/internal/telemetry"
)

// ChainCache memoizes verified AS certificate chains. Verifying a
// SignedMessage from scratch parses two DER certificates and performs
// three ECDSA verifications (AS←CA, CA←root, payload) — but within one
// network the same handful of chains signs every beacon entry, so all of
// it except the payload signature is pure re-derivation. The cache keys
// an entry by SHA-256(ASCertDER ‖ CACertDER ‖ ISD) and stores the parsed
// subject, the AS's ECDSA public key, and the validity window inside
// which the chain verdict holds (the intersection of the AS, CA and root
// certificate validity periods with the TRC's). Entries self-invalidate:
// a lookup outside the window, or against a different TRC object (a TRC
// update replaces the store's pointer), falls back to full verification.
//
// Only positive verdicts are cached. A failed chain never enters the
// cache, so tampered or unanchored chains pay — and fail — the full
// path every time.
//
// The cache is safe for concurrent use and the hit path does not
// allocate (guarded by TestChainCacheResolveZeroAlloc); the replicas of
// a sharded campaign share one and hit it from several goroutines at once.
type ChainCache struct {
	mu      sync.RWMutex
	entries map[[sha256.Size]byte]*cachedChain
	hashers sync.Pool

	// Hits/Misses count lookups served from / falling through the
	// cache. Register adopts them into a telemetry registry.
	Hits   telemetry.Counter
	Misses telemetry.Counter
}

// cachedChain is one positively verified chain. The verdict — and the
// public key — may be reused for any verification time inside
// [notBefore, notAfter] against the same TRC.
type cachedChain struct {
	ia        addr.IA
	pub       *ecdsa.PublicKey
	notBefore time.Time
	notAfter  time.Time
	trc       *TRC
}

// keyHasher is the pooled scratch state for computing cache keys
// without allocating on the hit path.
type keyHasher struct {
	h       hash.Hash
	scratch [sha256.Size]byte
}

// NewChainCache creates an empty chain cache.
func NewChainCache() *ChainCache {
	c := &ChainCache{entries: make(map[[sha256.Size]byte]*cachedChain)}
	c.hashers.New = func() any { return &keyHasher{h: sha256.New()} }
	return c
}

// Register adopts the hit/miss counters into a telemetry registry.
func (c *ChainCache) Register(reg *telemetry.Registry) {
	reg.RegisterCounter("sciera_cppki_chain_cache_hits_total",
		"verified-chain cache lookups served from the cache", &c.Hits)
	reg.RegisterCounter("sciera_cppki_chain_cache_misses_total",
		"verified-chain cache lookups requiring full chain verification", &c.Misses)
}

// Len returns the number of cached chains.
func (c *ChainCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// key computes SHA-256(ASCertDER ‖ CACertDER ‖ ISD) into out.
func (c *ChainCache) key(m *SignedMessage, isd addr.ISD, out *[sha256.Size]byte) {
	kh := c.hashers.Get().(*keyHasher)
	kh.h.Reset()
	kh.h.Write(m.ASCertDER)
	kh.h.Write(m.CACertDER)
	binary.BigEndian.PutUint16(kh.scratch[:2], uint16(isd))
	kh.h.Write(kh.scratch[:2])
	copy(out[:], kh.h.Sum(kh.scratch[:0]))
	c.hashers.Put(kh)
}

// resolve returns the verified signing key and subject for the
// message's chain, serving repeat chains from the cache. The caller
// still verifies the payload signature — the cache memoizes the chain
// verdict, never the message.
func (c *ChainCache) resolve(m *SignedMessage, trc *TRC, expected addr.IA, at time.Time) (*ecdsa.PublicKey, addr.IA, error) {
	var k [sha256.Size]byte
	c.key(m, trc.ISD, &k)

	c.mu.RLock()
	e := c.entries[k]
	c.mu.RUnlock()
	if e != nil && e.trc == trc && !at.Before(e.notBefore) && !at.After(e.notAfter) {
		c.Hits.Inc()
		if !expected.IsZero() && e.ia != expected {
			return nil, 0, fmt.Errorf("%w: have %v, want %v", ErrWrongSubject, e.ia, expected)
		}
		return e.pub, e.ia, nil
	}
	c.Misses.Inc()

	pub, ia, notBefore, notAfter, err := resolveChain(m, trc, at)
	if err != nil {
		return nil, 0, err
	}
	c.mu.Lock()
	c.entries[k] = &cachedChain{ia: ia, pub: pub, notBefore: notBefore, notAfter: notAfter, trc: trc}
	c.mu.Unlock()
	if !expected.IsZero() && ia != expected {
		return nil, 0, fmt.Errorf("%w: have %v, want %v", ErrWrongSubject, ia, expected)
	}
	return pub, ia, nil
}

// resolveChain is the uncached path: parse both certificates, verify
// the chain against the TRC, and extract the signing key, subject and
// the validity window of the verdict.
func resolveChain(m *SignedMessage, trc *TRC, at time.Time) (*ecdsa.PublicKey, addr.IA, time.Time, time.Time, error) {
	var zero time.Time
	asCert, err := x509.ParseCertificate(m.ASCertDER)
	if err != nil {
		return nil, 0, zero, zero, fmt.Errorf("cppki: parsing AS cert: %w", err)
	}
	caCert, err := x509.ParseCertificate(m.CACertDER)
	if err != nil {
		return nil, 0, zero, zero, fmt.Errorf("cppki: parsing CA cert: %w", err)
	}
	notBefore, notAfter, err := verifyChainWindow(Chain{AS: asCert, CA: caCert}, trc, at)
	if err != nil {
		return nil, 0, zero, zero, err
	}
	pub, ok := asCert.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		return nil, 0, zero, zero, fmt.Errorf("%w: AS cert key is not ECDSA", ErrBadChain)
	}
	ia, err := SubjectIA(asCert)
	if err != nil {
		return nil, 0, zero, zero, err
	}
	return pub, ia, notBefore, notAfter, nil
}
