package segment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"sciera/internal/addr"
	"sciera/internal/cppki"
)

// The canonical bytes signed by entry i are the segment metadata plus
// all entries up to and including i, signatures stripped:
//
//	{"timestamp":T,"beta0":B,"entries":[e0,...,ei]}
//
// Signing the prefix (rather than just the own entry) binds each entry
// to its position, so a malicious AS cannot splice signed entries from
// other beacons. The format is pinned byte-for-byte by
// TestSignPayloadGolden: existing signatures must stay valid.
//
// payloadBuilder accumulates those bytes incrementally: each entry is
// JSON-marshaled exactly once and the growing prefix is reused for every
// later index, replacing the previous scheme that re-marshaled the whole
// prefix per entry (O(n²) in segment length, at sign and verify time).
type payloadBuilder struct {
	buf []byte
	n   int // entries appended
}

// newPayloadBuilder starts a builder with the segment's metadata header.
func (s *Segment) newPayloadBuilder() payloadBuilder {
	b := payloadBuilder{buf: make([]byte, 0, 64+192*(len(s.ASEntries)+1))}
	b.buf = append(b.buf, `{"timestamp":`...)
	b.buf = strconv.AppendUint(b.buf, uint64(s.Timestamp), 10)
	b.buf = append(b.buf, `,"beta0":`...)
	b.buf = strconv.AppendUint(b.buf, uint64(s.Beta0), 10)
	b.buf = append(b.buf, `,"entries":[`...)
	return b
}

// add marshals one entry (signature stripped) and appends it to the
// accumulated prefix.
func (b *payloadBuilder) add(e *ASEntry) error {
	c := *e // shallow copy: Peers is shared but only read by Marshal
	c.Signature = nil
	eb, err := json.Marshal(&c)
	if err != nil {
		return fmt.Errorf("segment: marshaling sign payload entry: %w", err)
	}
	if b.n > 0 {
		b.buf = append(b.buf, ',')
	}
	b.buf = append(b.buf, eb...)
	b.n++
	return nil
}

// payload returns the canonical bytes for the entries added so far. The
// returned slice may alias the builder's buffer: it is valid until the
// next add call, and callers that retain it must own the builder (as
// SignLast does — its builder dies with the call, transferring the
// buffer to the signature).
func (b *payloadBuilder) payload() []byte {
	return append(b.buf, ']', '}')
}

// SignLast signs the most recently appended entry. Beaconing calls this
// right after Originate/Extend when running with the control-plane PKI
// enabled.
func (s *Segment) SignLast(signer *cppki.Signer) error {
	i := len(s.ASEntries) - 1
	if i < 0 {
		return ErrEmpty
	}
	if s.ASEntries[i].IA != signer.IA {
		return fmt.Errorf("%w: signer %v for entry of %v", ErrBadEntry, signer.IA, s.ASEntries[i].IA)
	}
	b := s.newPayloadBuilder()
	for j := 0; j <= i; j++ {
		if err := b.add(&s.ASEntries[j]); err != nil {
			return err
		}
	}
	msg, err := signer.Sign(b.payload())
	if err != nil {
		return err
	}
	s.ASEntries[i].Signature = msg
	return nil
}

// Verifier checks segment signatures against the control-plane PKI. The
// zero value needs TRCs and At. Chains (a cppki.ChainCache) is an
// optional accelerator: it memoizes verified certificate chains, so
// repeat signers skip certificate parsing and chain ECDSA checks.
type Verifier struct {
	TRCs   *cppki.Store
	Chains *cppki.ChainCache
	At     time.Time
}

// Verify checks every entry's signature. Unsigned entries fail with
// ErrNotSigned, any mismatch with ErrBadSig.
func (v *Verifier) Verify(s *Segment) error { return v.verifyFrom(s, 0) }

// VerifyLast checks the last entry's signature only: the receipt check
// for a beacon whose prefix the caller holds verified — beaconing extends
// only beacons a store kept, and a store keeps only verified ones, so
// what arrives unverified is the one entry the sender appended.
func (v *Verifier) VerifyLast(s *Segment) error { return v.verifyFrom(s, len(s.ASEntries)-1) }

// verifyFrom checks the signatures of entries from index from on; the
// entries before it only contribute their bytes to the signed prefix.
func (v *Verifier) verifyFrom(s *Segment, from int) error {
	if len(s.ASEntries) == 0 {
		return ErrEmpty
	}
	b := s.newPayloadBuilder()
	for i := range s.ASEntries {
		e := &s.ASEntries[i]
		if e.Signature == nil {
			return fmt.Errorf("%w: entry %d (%v)", ErrNotSigned, i, e.IA)
		}
		if err := b.add(e); err != nil {
			return err
		}
		if i < from {
			continue
		}
		trc, ok := v.TRCs.Get(e.IA.ISD())
		if !ok {
			return fmt.Errorf("%w: no TRC for ISD %d", ErrBadSig, e.IA.ISD())
		}
		payload, signerIA, err := e.Signature.VerifyCached(trc, e.IA, v.At, v.Chains)
		if err != nil {
			return fmt.Errorf("%w: entry %d (%v): %v", ErrBadSig, i, e.IA, err)
		}
		if signerIA != e.IA {
			return fmt.Errorf("%w: entry %d signed by %v", ErrBadSig, i, signerIA)
		}
		if !bytes.Equal(payload, b.payload()) {
			return fmt.Errorf("%w: entry %d payload mismatch", ErrBadSig, i)
		}
	}
	return nil
}

// VerifySignatures checks every entry's signature against the signing
// AS's certificate chain and the ISD TRC. Unsigned entries fail with
// ErrNotSigned.
func (s *Segment) VerifySignatures(trcs *cppki.Store, at time.Time) error {
	return (&Verifier{TRCs: trcs, At: at}).Verify(s)
}

// SignerIAs lists the ASes that signed the segment, in order.
func (s *Segment) SignerIAs() []addr.IA {
	out := make([]addr.IA, 0, len(s.ASEntries))
	for _, e := range s.ASEntries {
		if e.Signature != nil {
			out = append(out, e.IA)
		}
	}
	return out
}
