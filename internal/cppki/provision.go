package cppki

import (
	"fmt"
	"time"

	"sciera/internal/addr"
)

// ProvisionOptions tunes ISD provisioning.
type ProvisionOptions struct {
	// NotBefore starts every validity period; required, and read from
	// the clock of the network being provisioned.
	NotBefore time.Time
}

// Validity periods of a provisioned ISD's base TRC, roots and CAs. The
// base TRC's voting quorum is a majority of its roots.
const (
	trcValidity  = 2 * 365 * 24 * time.Hour
	rootValidity = 5 * 365 * 24 * time.Hour
	caValidity   = 365 * 24 * time.Hour
)

// ProvisionedISD is everything needed to stand up a new ISD: root keys,
// a quorum-signed base TRC, and issuing credentials per authoritative
// core AS. The orchestrator uses it when provisioning an ISD (the
// paper's team "needed to set up and configure our own CA ... which
// required a few weeks"; ProvisionISD is the automated version).
type ProvisionedISD struct {
	TRC      *TRC
	RootKeys []*KeyPair
	CACerts  map[addr.IA]CAMaterial
}

// CAMaterial is a core AS's issuing credentials.
type CAMaterial struct {
	Key  *KeyPair
	Cert []byte // DER
}

// ProvisionISD creates a complete trust anchor for an ISD: one root per
// authoritative AS, a base TRC self-signed by a quorum of those roots,
// and one CA certificate per authoritative AS.
func ProvisionISD(isd addr.ISD, core, authoritative []addr.IA, opts ProvisionOptions) (*ProvisionedISD, error) {
	if len(authoritative) == 0 {
		return nil, fmt.Errorf("cppki: ISD %d needs at least one authoritative AS", isd)
	}
	if opts.NotBefore.IsZero() {
		return nil, fmt.Errorf("cppki: ProvisionOptions.NotBefore required (the provisioning network's clock)")
	}
	quorum := len(authoritative)/2 + 1

	out := &ProvisionedISD{CACerts: make(map[addr.IA]CAMaterial)}
	trc := &TRC{
		ISD:           isd,
		Base:          1,
		Serial:        1,
		NotBefore:     opts.NotBefore,
		NotAfter:      opts.NotBefore.Add(trcValidity),
		CoreASes:      core,
		Authoritative: authoritative,
		VotingQuorum:  quorum,
	}

	type rootMat struct {
		key  *KeyPair
		cert []byte
	}
	roots := make([]rootMat, len(authoritative))
	for i, ia := range authoritative {
		key, err := GenerateKey()
		if err != nil {
			return nil, err
		}
		cert, err := NewRootCert(ia, key, opts.NotBefore, rootValidity)
		if err != nil {
			return nil, err
		}
		roots[i] = rootMat{key: key, cert: cert.Raw}
		trc.RootCertsDER = append(trc.RootCertsDER, cert.Raw)
		out.RootKeys = append(out.RootKeys, key)
	}
	// Self-sign the base TRC with a quorum of roots.
	for i := 0; i < quorum; i++ {
		if err := trc.Sign(i, roots[i].key); err != nil {
			return nil, err
		}
	}
	out.TRC = trc

	// Issue a CA cert per authoritative AS under its own root.
	trcRoots, err := trc.Roots()
	if err != nil {
		return nil, err
	}
	for i, ia := range authoritative {
		caKey, err := GenerateKey()
		if err != nil {
			return nil, err
		}
		caCert, err := NewCACert(ia, caKey, trcRoots[i], roots[i].key, opts.NotBefore, caValidity)
		if err != nil {
			return nil, err
		}
		out.CACerts[ia] = CAMaterial{Key: caKey, Cert: caCert.Raw}
	}
	return out, nil
}

// UpdateTRC builds and quorum-signs a successor TRC with updated core AS
// membership, reusing the predecessor's roots. The returned TRC verifies
// under VerifyUpdate(prev, next).
func UpdateTRC(prev *TRC, rootKeys []*KeyPair, core []addr.IA, at time.Time) (*TRC, error) {
	next := &TRC{
		ISD:           prev.ISD,
		Base:          prev.Base,
		Serial:        prev.Serial + 1,
		NotBefore:     at.Add(-time.Minute),
		NotAfter:      prev.NotAfter,
		CoreASes:      core,
		Authoritative: prev.Authoritative,
		VotingQuorum:  prev.VotingQuorum,
		RootCertsDER:  prev.RootCertsDER,
	}
	if len(rootKeys) < prev.VotingQuorum {
		return nil, fmt.Errorf("%w: have %d keys, need %d", ErrQuorum, len(rootKeys), prev.VotingQuorum)
	}
	for i := 0; i < prev.VotingQuorum; i++ {
		if err := next.Sign(i, rootKeys[i]); err != nil {
			return nil, err
		}
	}
	return next, nil
}
