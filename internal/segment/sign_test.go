package segment

import (
	"bytes"
	"crypto/x509"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/cppki"
	"sciera/internal/scrypto"
)

// legacySignPayload is the original payload scheme (re-marshal the whole
// prefix per entry), kept verbatim as the reference the incremental
// builder must match byte-for-byte: signatures created before the
// builder landed must stay valid.
func legacySignPayload(s *Segment, i int) ([]byte, error) {
	if i < 0 || i >= len(s.ASEntries) {
		return nil, fmt.Errorf("%w: sign index %d", ErrBadEntry, i)
	}
	type entryNoSig struct {
		ASEntry
		Signature *cppki.SignedMessage `json:"signature,omitempty"`
	}
	prefix := struct {
		Timestamp uint32       `json:"timestamp"`
		Beta0     uint16       `json:"beta0"`
		Entries   []entryNoSig `json:"entries"`
	}{Timestamp: s.Timestamp, Beta0: s.Beta0}
	prefix.Entries = make([]entryNoSig, 0, i+1)
	for j := 0; j <= i; j++ {
		e := entryNoSig{ASEntry: s.ASEntries[j]}
		e.ASEntry.Signature = nil
		e.Signature = nil
		prefix.Entries = append(prefix.Entries, e)
	}
	return json.Marshal(&prefix)
}

// goldenSegment builds a fixed three-entry segment with peer entries and
// a (bogus but present) signature on entry 0, exercising every field
// that appears in the canonical payload.
func goldenSegment(t *testing.T) *Segment {
	t.Helper()
	a, b, c := addr.MustParseIA("71-1"), addr.MustParseIA("71-2"), addr.MustParseIA("71-2:0:3b")
	s, err := Originate(500, 7, a, 2, b, 12.5, 63, macOf(a))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Extend(ASEntry{IA: b, Next: c, Ingress: 4, Egress: 9, ExpTime: 63, LinkLatencyMS: 3.25, MTU: 1472}, macOf(b)); err != nil {
		t.Fatal(err)
	}
	s.ASEntries[1].Peers = []PeerEntry{{
		Peer: addr.MustParseIA("71-9"), PeerIf: 3, LocalIf: 8,
		LinkLatencyMS: 1.5, ExpTime: 63, MAC: [scrypto.HopMACLen]byte{1, 2, 3},
	}}
	if err := s.Extend(ASEntry{IA: c, Ingress: 1, ExpTime: 63, MTU: 9000}, macOf(c)); err != nil {
		t.Fatal(err)
	}
	// A present signature must be stripped from the payload.
	s.ASEntries[0].Signature = &cppki.SignedMessage{Payload: []byte("x"), Signature: []byte("y")}
	return s
}

// TestSignPayloadGolden pins the canonical sign-payload bytes: the
// incremental builder must reproduce the legacy scheme exactly, for
// every prefix length, and the overall shape is pinned literally so the
// two implementations cannot drift together unnoticed.
func TestSignPayloadGolden(t *testing.T) {
	s := goldenSegment(t)
	b := s.newPayloadBuilder()
	for i := range s.ASEntries {
		if err := b.add(&s.ASEntries[i]); err != nil {
			t.Fatal(err)
		}
		got := b.payload()
		want, err := legacySignPayload(s, i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("payload %d mismatch:\nincremental: %s\nlegacy:      %s", i, got, want)
		}
	}
	// Literal pin of the single-entry payload's scaffolding.
	b0 := s.newPayloadBuilder()
	if err := b0.add(&s.ASEntries[0]); err != nil {
		t.Fatal(err)
	}
	got := string(b0.payload())
	wantPrefix := `{"timestamp":500,"beta0":7,"entries":[{"ia":"71-1","next":"71-2",`
	if len(got) < len(wantPrefix) || got[:len(wantPrefix)] != wantPrefix {
		t.Fatalf("golden prefix drifted:\ngot  %s\nwant %s...", got, wantPrefix)
	}
	if got[len(got)-2:] != "]}" {
		t.Fatalf("payload not closed: %s", got)
	}
}

// signedTestSegment provisions a one-ISD PKI and fully signs the golden
// route through it.
func signedTestSegment(t testing.TB, entries int) (*Segment, *cppki.Store, time.Time) {
	t.Helper()
	now := time.Unix(1_737_000_000, 0)
	core := addr.MustParseIA("71-1")
	p, err := cppki.ProvisionISD(71, []addr.IA{core}, []addr.IA{core},
		cppki.ProvisionOptions{NotBefore: now.Add(-time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	caCert, err := x509.ParseCertificate(p.CACerts[core].Cert)
	if err != nil {
		t.Fatal(err)
	}
	signerFor := func(ia addr.IA) *cppki.Signer {
		key, err := cppki.GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		cert, err := cppki.NewASCert(ia, key.Public(), caCert, p.CACerts[core].Key, now.Add(-time.Hour), 72*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return &cppki.Signer{IA: ia, Key: key, Chain: cppki.Chain{AS: cert, CA: caCert}}
	}
	ias := make([]addr.IA, entries)
	ias[0] = core
	for i := 1; i < entries; i++ {
		ias[i] = addr.MustParseIA(fmt.Sprintf("71-%d", i+1))
	}
	s, err := Originate(uint32(now.Unix()), 7, ias[0], 2, ias[1], 1, 63, macOf(ias[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SignLast(signerFor(ias[0])); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < entries; i++ {
		e := ASEntry{IA: ias[i], Ingress: 1, ExpTime: 63}
		if i < entries-1 {
			e.Next = ias[i+1]
			e.Egress = 2
		}
		if err := s.Extend(e, macOf(ias[i])); err != nil {
			t.Fatal(err)
		}
		if err := s.SignLast(signerFor(ias[i])); err != nil {
			t.Fatal(err)
		}
	}
	trcs := cppki.NewStore()
	if err := trcs.AddTrusted(p.TRC, now); err != nil {
		t.Fatal(err)
	}
	return s, trcs, now
}

// TestCloneForExtendAliasing pins the copy-on-write contract: extending
// a CloneForExtend copy (including appending peers and a signature to
// the new tail) must leave the parent — and a sibling extension —
// untouched.
func TestCloneForExtendAliasing(t *testing.T) {
	s := goldenSegment(t)
	s.ASEntries[0].Signature = nil
	next1, next2 := addr.MustParseIA("71-100"), addr.MustParseIA("71-101")
	s.ASEntries[len(s.ASEntries)-1].Next = next1

	parentJSON, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}

	ext1 := s.CloneForExtend()
	if err := ext1.Extend(ASEntry{IA: next1, Ingress: 5, ExpTime: 63}, macOf(next1)); err != nil {
		t.Fatal(err)
	}
	tail := &ext1.ASEntries[len(ext1.ASEntries)-1]
	tail.Peers = append(tail.Peers, PeerEntry{Peer: addr.MustParseIA("71-200"), PeerIf: 1, LocalIf: 2})

	// A sibling extension from the same parent gets its own tail slot:
	// the capacity clamp forces both appends to copy into fresh arrays.
	ext2 := s.CloneForExtend()
	if err := ext2.Extend(ASEntry{IA: next1, Next: next2, Ingress: 6, Egress: 7, ExpTime: 63}, macOf(next1)); err != nil {
		t.Fatal(err)
	}

	after, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parentJSON, after) {
		t.Fatalf("parent mutated through CloneForExtend child:\nbefore %s\nafter  %s", parentJSON, after)
	}
	// Sibling extensions own their tails independently.
	if got := ext1.ASEntries[len(ext1.ASEntries)-1].IA; got != next1 {
		t.Fatalf("ext1 tail = %v", got)
	}
	e1, e2 := &ext1.ASEntries[len(ext1.ASEntries)-1], &ext2.ASEntries[len(ext2.ASEntries)-1]
	if e2.Next != next2 || e2.Ingress != 6 {
		t.Fatalf("ext2 tail = %+v", e2)
	}
	if e1.Next == next2 || e1.Ingress != 5 || len(e2.Peers) != 0 {
		t.Fatal("sibling extensions share a tail slot")
	}
	if len(s.ASEntries) != 3 || len(ext1.ASEntries) != 4 || len(ext2.ASEntries) != 4 {
		t.Fatalf("lengths: parent %d ext1 %d ext2 %d", len(s.ASEntries), len(ext1.ASEntries), len(ext2.ASEntries))
	}
}

// BenchmarkVerifySignatures measures signature verification of one
// 6-entry segment: cold (the pre-cache path: re-parse and re-verify
// every chain, per entry) and warm chain cache (payload ECDSA only).
func BenchmarkVerifySignatures(b *testing.B) {
	s, trcs, now := signedTestSegment(b, 6)

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.VerifySignatures(trcs, now); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-chain", func(b *testing.B) {
		chains := cppki.NewChainCache()
		v := &Verifier{TRCs: trcs, Chains: chains, At: now}
		if err := v.Verify(s); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := v.Verify(s); err != nil {
				b.Fatal(err)
			}
		}
	})
}
