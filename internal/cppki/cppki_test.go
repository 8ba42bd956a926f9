package cppki

import (
	"testing"
	"time"

	"sciera/internal/addr"
)

var (
	coreA = addr.MustParseIA("71-20965")
	coreB = addr.MustParseIA("71-2:0:3b")
	coreC = addr.MustParseIA("71-2:0:35")
	leaf  = addr.MustParseIA("71-2:0:5c")
)

func provision(t *testing.T) *ProvisionedISD {
	t.Helper()
	p, err := ProvisionISD(71,
		[]addr.IA{coreA, coreB, coreC},
		[]addr.IA{coreA, coreB},
		ProvisionOptions{NotBefore: time.Now().Add(-time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProvisionISD(t *testing.T) {
	p := provision(t)
	if p.TRC.ISD != 71 || p.TRC.Base != 1 || p.TRC.Serial != 1 {
		t.Errorf("TRC id = %s", p.TRC.ID())
	}
	if p.TRC.VotingQuorum != 2 {
		t.Errorf("quorum = %d", p.TRC.VotingQuorum)
	}
	if err := p.TRC.VerifyBase(time.Now()); err != nil {
		t.Fatalf("base TRC does not verify: %v", err)
	}
	if !p.TRC.IsCore(coreB) || p.TRC.IsCore(leaf) {
		t.Error("IsCore misclassifies")
	}
	if len(p.CACerts) != 2 {
		t.Errorf("CA certs = %d", len(p.CACerts))
	}
	if p.TRC.ID() != "ISD71-B1-S1" {
		t.Errorf("ID = %q", p.TRC.ID())
	}
}

func TestTRCEncodeDecode(t *testing.T) {
	p := provision(t)
	b, err := p.TRC.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTRC(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.VerifyBase(time.Now()); err != nil {
		t.Fatalf("decoded TRC does not verify: %v", err)
	}
	if got.ID() != p.TRC.ID() {
		t.Errorf("ID mismatch: %s vs %s", got.ID(), p.TRC.ID())
	}
}

func TestTRCBaseRejectsTampering(t *testing.T) {
	p := provision(t)
	b, _ := p.TRC.Encode()
	tampered, _ := DecodeTRC(b)
	tampered.CoreASes = append(tampered.CoreASes, leaf)
	if err := tampered.VerifyBase(time.Now()); err == nil {
		t.Error("tampered TRC verified")
	}

	// Insufficient quorum: strip votes.
	short, _ := DecodeTRC(b)
	short.Votes = short.Votes[:1]
	if err := short.VerifyBase(time.Now()); err == nil {
		t.Error("TRC with one vote verified against quorum 2")
	}

	// Duplicate votes must not double-count.
	dup, _ := DecodeTRC(b)
	dup.Votes = []Vote{dup.Votes[0], dup.Votes[0]}
	if err := dup.VerifyBase(time.Now()); err == nil {
		t.Error("duplicate votes satisfied quorum")
	}

	// Expired TRC.
	exp, _ := DecodeTRC(b)
	if err := exp.VerifyBase(exp.NotAfter.Add(time.Hour)); err == nil {
		t.Error("expired TRC verified")
	}
}

func TestTRCUpdateChain(t *testing.T) {
	p := provision(t)
	now := time.Now()

	next, err := UpdateTRC(p.TRC, p.RootKeys, []addr.IA{coreA, coreB}, now)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyUpdate(p.TRC, next, now); err != nil {
		t.Fatalf("valid update rejected: %v", err)
	}

	// Chain through a store.
	store := NewStore()
	if err := store.AddTrusted(p.TRC, now); err != nil {
		t.Fatal(err)
	}
	if err := store.Update(next, now); err != nil {
		t.Fatal(err)
	}
	got, ok := store.Get(71)
	if !ok || got.Serial != 2 {
		t.Fatalf("store latest = %v %v", got, ok)
	}
	if len(store.ISDs()) != 1 {
		t.Errorf("ISDs = %v", store.ISDs())
	}

	// Skipping a serial must fail.
	skip, err := UpdateTRC(next, p.RootKeys, next.CoreASes, now)
	if err != nil {
		t.Fatal(err)
	}
	skip.Serial = 5
	if err := store.Update(skip, now); err == nil {
		t.Error("serial skip accepted")
	}

	// Update signed by an unrelated key must fail.
	rogueKey, _ := GenerateKey()
	rogue := &TRC{
		ISD: 71, Base: 1, Serial: 3,
		NotBefore: now.Add(-time.Minute), NotAfter: p.TRC.NotAfter,
		CoreASes: next.CoreASes, Authoritative: next.Authoritative,
		VotingQuorum: next.VotingQuorum, RootCertsDER: next.RootCertsDER,
	}
	_ = rogue.Sign(0, rogueKey)
	_ = rogue.Sign(1, rogueKey)
	if err := store.Update(rogue, now); err == nil {
		t.Error("rogue-signed update accepted")
	}

	// Unknown ISD.
	other := *next
	other.ISD = 64
	if err := store.Update(&other, now); err == nil {
		t.Error("update for untrusted ISD accepted")
	}
}

func TestChainIssuanceAndVerify(t *testing.T) {
	p := provision(t)
	now := time.Now()
	caMat := p.CACerts[coreA]
	roots, err := p.TRC.Roots()
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 2 {
		t.Fatalf("roots = %d", len(roots))
	}
	caCert, err := parseCert(t, caMat.Cert)
	if err != nil {
		t.Fatal(err)
	}

	asKey, _ := GenerateKey()
	asCert, err := NewASCert(leaf, asKey.Public(), caCert, caMat.Key, now.Add(-time.Second), 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	chain := Chain{AS: asCert, CA: caCert}
	if err := VerifyChain(chain, p.TRC, leaf, now); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	// Wrong expected subject.
	if err := VerifyChain(chain, p.TRC, coreB, now); err == nil {
		t.Error("chain verified for wrong subject")
	}
	// Expired.
	if err := VerifyChain(chain, p.TRC, leaf, now.Add(100*time.Hour)); err == nil {
		t.Error("expired chain verified")
	}
	// CA not anchored: provision a different ISD and use its TRC.
	q, err := ProvisionISD(64, []addr.IA{addr.MustParseIA("64-559")},
		[]addr.IA{addr.MustParseIA("64-559")}, ProvisionOptions{NotBefore: now.Add(-time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyChain(chain, q.TRC, leaf, now); err == nil {
		t.Error("chain verified against foreign TRC")
	}
	// Incomplete chain.
	if err := VerifyChain(Chain{AS: asCert}, p.TRC, leaf, now); err == nil {
		t.Error("incomplete chain verified")
	}
}

func TestSignedMessage(t *testing.T) {
	p := provision(t)
	now := time.Now()
	caMat := p.CACerts[coreA]
	caCert, err := parseCert(t, caMat.Cert)
	if err != nil {
		t.Fatal(err)
	}
	asKey, _ := GenerateKey()
	asCert, err := NewASCert(coreA, asKey.Public(), caCert, caMat.Key, now.Add(-time.Second), 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	signer := &Signer{IA: coreA, Key: asKey, Chain: Chain{AS: asCert, CA: caCert}}
	msg, err := signer.Sign([]byte("topology-v1"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := msg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSignedMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	payload, ia, err := dec.Verify(p.TRC, coreA, now)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "topology-v1" || ia != coreA {
		t.Errorf("payload %q from %v", payload, ia)
	}
	// Tampered payload.
	dec.Payload = []byte("topology-vEvil")
	if _, _, err := dec.Verify(p.TRC, coreA, now); err == nil {
		t.Error("tampered payload verified")
	}
	// Wrong expected signer.
	if _, _, err := msg.Verify(p.TRC, coreB, now); err == nil {
		t.Error("verified for wrong expected IA")
	}
	// Any-signer verification works with zero IA.
	if _, ia, err := msg.Verify(p.TRC, 0, now); err != nil || ia != coreA {
		t.Errorf("any-signer verify: %v %v", ia, err)
	}
}

func TestProvisionValidation(t *testing.T) {
	if _, err := ProvisionISD(9, nil, nil, ProvisionOptions{NotBefore: time.Now()}); err == nil {
		t.Error("provisioning without authoritative ASes accepted")
	}
	// Validity starts on the provisioning network's clock, never on a
	// default one.
	if _, err := ProvisionISD(9, []addr.IA{coreA}, []addr.IA{coreA}, ProvisionOptions{}); err == nil {
		t.Error("provisioning without NotBefore accepted")
	}
}

func TestUpdateTRCNeedsQuorumKeys(t *testing.T) {
	p := provision(t)
	if _, err := UpdateTRC(p.TRC, p.RootKeys[:1], p.TRC.CoreASes, time.Now()); err == nil {
		t.Error("update with one key accepted despite quorum 2")
	}
}
