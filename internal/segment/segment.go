// Package segment implements SCION path segments: the cryptographically
// protected AS-level path pieces created by beaconing (PCBs), registered
// at path servers, and combined by end hosts into end-to-end forwarding
// paths.
//
// A segment is built in "construction direction": the origin (always a
// core AS) creates it and each AS on the way appends an entry containing
// its hop field. Hop-field MACs are chained through the beta accumulator
// (see spath), and each AS entry is optionally signed with the AS
// certificate so that receivers can verify authenticity against the ISD
// TRC — the property that eliminates prefix-hijacking-style attacks.
package segment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"sciera/internal/addr"
	"sciera/internal/cppki"
	"sciera/internal/scrypto"
	"sciera/internal/spath"
)

// Type classifies how a segment is registered and used.
type Type int

const (
	// Core segments connect two core ASes.
	Core Type = iota
	// Down segments go from a core AS down to a non-core AS; used as-is
	// for the destination side and in reverse as "up" segments.
	Down
	// Up is the lookup alias for down segments used from the source
	// side. Segments themselves are stored as Down; path lookups use Up.
	Up
)

func (t Type) String() string {
	switch t {
	case Core:
		return "core"
	case Down:
		return "down"
	case Up:
		return "up"
	default:
		return fmt.Sprintf("segtype(%d)", int(t))
	}
}

// PeerEntry advertises a peering link of an AS, enabling peer shortcuts
// during combination. The MAC authorizes the peer crossing: it is
// computed over the accumulator *after* the AS's own entry, with the
// peer interface as construction ingress and the entry's egress as
// construction egress (see spath.VerifyPeerHop for the verification
// rule).
type PeerEntry struct {
	Peer          addr.IA                 `json:"peer"`
	PeerIf        uint16                  `json:"peer_if"`  // interface on the peer side
	LocalIf       uint16                  `json:"local_if"` // interface on this AS
	LinkLatencyMS float64                 `json:"link_latency_ms"`
	ExpTime       uint8                   `json:"exp_time"`
	MAC           [scrypto.HopMACLen]byte `json:"mac"`
}

// ASEntry is one AS's contribution to a segment, in construction order.
type ASEntry struct {
	IA   addr.IA `json:"ia"`
	Next addr.IA `json:"next"` // AS the PCB was forwarded to; zero at terminus

	// Ingress/Egress are construction-direction interfaces: Ingress
	// faces the previous entry's AS (zero at the origin), Egress faces
	// Next (zero at the terminus).
	Ingress uint16                  `json:"ingress"`
	Egress  uint16                  `json:"egress"`
	ExpTime uint8                   `json:"exp_time"`
	MAC     [scrypto.HopMACLen]byte `json:"mac"`

	// LinkLatencyMS is the propagation latency of the egress link (to
	// Next); zero at the terminus. Latency metadata powers the
	// latency-aware path policies evaluated in Section 5.4.
	LinkLatencyMS float64 `json:"link_latency_ms"`
	MTU           uint16  `json:"mtu"`

	Peers []PeerEntry `json:"peers,omitempty"`

	// Signature covers the segment prefix up to and including this
	// entry; nil for unsigned (simulation-only) segments.
	Signature *cppki.SignedMessage `json:"signature,omitempty"`
}

// Segment is a path segment in construction order.
type Segment struct {
	Timestamp uint32    `json:"timestamp"` // creation time (Unix seconds)
	Beta0     uint16    `json:"beta0"`     // initial MAC accumulator
	ASEntries []ASEntry `json:"as_entries"`
}

// Errors.
var (
	ErrEmpty     = errors.New("segment: empty segment")
	ErrBadMAC    = errors.New("segment: hop MAC verification failed")
	ErrBadEntry  = errors.New("segment: inconsistent AS entry")
	ErrNotSigned = errors.New("segment: AS entry not signed")
	ErrBadSig    = errors.New("segment: entry signature invalid")
)

// Originate creates a new segment at a core AS. egress is the interface
// the PCB leaves on, next the neighbor it is sent to. mac is the origin
// AS's prepared hop-key CMAC (scrypto.NewHopCMAC): beaconing computes
// thousands of hop MACs per AS, so the key schedule is the caller's to
// pay once.
func Originate(ts uint32, beta0 uint16, origin addr.IA, egress uint16, next addr.IA,
	linkLatencyMS float64, expTime uint8, mac *scrypto.CMAC) (*Segment, error) {
	s := &Segment{Timestamp: ts, Beta0: beta0}
	if err := s.append(ASEntry{
		IA:            origin,
		Next:          next,
		Egress:        egress,
		ExpTime:       expTime,
		LinkLatencyMS: linkLatencyMS,
	}, mac); err != nil {
		return nil, err
	}
	return s, nil
}

// Extend appends an AS entry; the entry's MAC is computed at the current
// accumulator with the extending AS's prepared hop-key CMAC. For a
// terminating entry, leave Egress and Next zero.
func (s *Segment) Extend(e ASEntry, mac *scrypto.CMAC) error {
	if len(s.ASEntries) == 0 {
		return ErrEmpty
	}
	last := s.ASEntries[len(s.ASEntries)-1]
	if last.Next != e.IA {
		return fmt.Errorf("%w: extending with %v but previous entry points to %v",
			ErrBadEntry, e.IA, last.Next)
	}
	if e.Ingress == 0 {
		return fmt.Errorf("%w: non-origin entry needs an ingress interface", ErrBadEntry)
	}
	return s.append(e, mac)
}

func (s *Segment) append(e ASEntry, mac *scrypto.CMAC) error {
	beta, err := s.betaAt(len(s.ASEntries))
	if err != nil {
		return err
	}
	e.MAC = scrypto.HopMAC(mac, scrypto.HopMACInput{
		Beta:        beta,
		Timestamp:   s.Timestamp,
		ExpTime:     e.ExpTime,
		ConsIngress: e.Ingress,
		ConsEgress:  e.Egress,
	})
	e.Signature = nil
	s.ASEntries = append(s.ASEntries, e)
	return nil
}

// betaAt returns the accumulator value before entry i.
func (s *Segment) betaAt(i int) (uint16, error) {
	if i > len(s.ASEntries) {
		return 0, fmt.Errorf("%w: beta index %d of %d", ErrBadEntry, i, len(s.ASEntries))
	}
	beta := s.Beta0
	for j := 0; j < i; j++ {
		beta = scrypto.UpdateBeta(beta, s.ASEntries[j].MAC)
	}
	return beta, nil
}

// BetaFinal returns the accumulator after the last entry — the value a
// sender places in the info field when traversing against construction
// direction.
func (s *Segment) BetaFinal() uint16 {
	beta, _ := s.betaAt(len(s.ASEntries))
	return beta
}

// Len returns the number of AS entries.
func (s *Segment) Len() int { return len(s.ASEntries) }

// FirstIA returns the origin AS (construction start).
func (s *Segment) FirstIA() addr.IA {
	if len(s.ASEntries) == 0 {
		return 0
	}
	return s.ASEntries[0].IA
}

// LastIA returns the terminal AS.
func (s *Segment) LastIA() addr.IA {
	if len(s.ASEntries) == 0 {
		return 0
	}
	return s.ASEntries[len(s.ASEntries)-1].IA
}

// ContainsIA reports whether ia appears on the segment.
func (s *Segment) ContainsIA(ia addr.IA) bool {
	for _, e := range s.ASEntries {
		if e.IA == ia {
			return true
		}
	}
	return false
}

// EntryFor returns the entry for ia, or nil.
func (s *Segment) EntryFor(ia addr.IA) *ASEntry {
	for i := range s.ASEntries {
		if s.ASEntries[i].IA == ia {
			return &s.ASEntries[i]
		}
	}
	return nil
}

// ID returns a stable identifier derived from the interface sequence and
// timestamp.
func (s *Segment) ID() string {
	var stack [6 + 8*routeHopLen]byte
	buf := binary.BigEndian.AppendUint32(stack[:0], s.Timestamp)
	buf = binary.BigEndian.AppendUint16(buf, s.Beta0)
	return hashID(appendRoute(buf, s.ASEntries))
}

// RouteID identifies the segment by its AS/interface route alone —
// stable across re-beaconing at a new timestamp (unlike ID, which also
// hashes the timestamp and the accumulator derived from it). Beacon selection ranks and
// deduplicates by RouteID so control-plane refreshes keep path sets
// stable when the topology hasn't changed.
func (s *Segment) RouteID() string {
	var stack [8 * routeHopLen]byte
	return hashID(appendRoute(stack[:0], s.ASEntries))
}

// ExtendedRouteID is the RouteID the segment would have after an entry
// (ia, ingress, egress) is appended: a receiver ranks a beacon by it
// before anyone has built the extension.
func (s *Segment) ExtendedRouteID(ia addr.IA, ingress, egress uint16) string {
	var stack [8 * routeHopLen]byte
	return hashID(appendHop(appendRoute(stack[:0], s.ASEntries), ia, ingress, egress))
}

// routeHopLen is what one AS entry contributes to the hashed route; the
// ID functions hash from a stack buffer sized for typical segments.
const routeHopLen = 12

func appendRoute(buf []byte, entries []ASEntry) []byte {
	for i := range entries {
		buf = appendHop(buf, entries[i].IA, entries[i].Ingress, entries[i].Egress)
	}
	return buf
}

func appendHop(buf []byte, ia addr.IA, ingress, egress uint16) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(ia))
	buf = binary.BigEndian.AppendUint16(buf, ingress)
	return binary.BigEndian.AppendUint16(buf, egress)
}

func hashID(b []byte) string {
	sum := sha256.Sum256(b)
	var out [16]byte
	hex.Encode(out[:], sum[:8])
	return string(out[:])
}

// HopFields returns the hop fields in construction order.
func (s *Segment) HopFields() []spath.HopField {
	hops := make([]spath.HopField, len(s.ASEntries))
	for i, e := range s.ASEntries {
		hops[i] = spath.HopField{
			ExpTime:     e.ExpTime,
			ConsIngress: e.Ingress,
			ConsEgress:  e.Egress,
			MAC:         e.MAC,
		}
	}
	return hops
}

// LatencyMS sums the inter-AS link latencies along the segment.
func (s *Segment) LatencyMS() float64 {
	var sum float64
	for _, e := range s.ASEntries {
		sum += e.LinkLatencyMS
	}
	return sum
}

// Expiry returns the absolute expiry time: the minimum hop expiry
// relative to the segment timestamp. ExpTime units are ~5.7 minutes
// (337.5 s), matching SCION's encoding of a 24h maximum.
func (s *Segment) Expiry() time.Time {
	minExp := ^uint8(0)
	for _, e := range s.ASEntries {
		if e.ExpTime < minExp {
			minExp = e.ExpTime
		}
	}
	// Widened before the +1: ExpTime 255 is the 24 h maximum, not zero.
	const unit = 337.5 // seconds
	return time.Unix(int64(s.Timestamp), 0).Add(time.Duration((float64(minExp) + 1) * unit * float64(time.Second)))
}

// VerifyMACs recomputes the accumulator chain and checks every hop MAC
// against the per-AS keys supplied by lookup. Any nil key skips that AS
// (a verifier usually only holds its own key; full verification is used
// in tests and by the simulator's omniscient checker).
func (s *Segment) VerifyMACs(keyFor func(addr.IA) (scrypto.HopKey, bool)) error {
	if len(s.ASEntries) == 0 {
		return ErrEmpty
	}
	beta := s.Beta0
	for i, e := range s.ASEntries {
		if key, ok := keyFor(e.IA); ok {
			valid := scrypto.VerifyHopMAC(key, scrypto.HopMACInput{
				Beta:        beta,
				Timestamp:   s.Timestamp,
				ExpTime:     e.ExpTime,
				ConsIngress: e.Ingress,
				ConsEgress:  e.Egress,
			}, e.MAC)
			if !valid {
				return fmt.Errorf("%w: entry %d (%v)", ErrBadMAC, i, e.IA)
			}
		}
		beta = scrypto.UpdateBeta(beta, e.MAC)
	}
	return nil
}

// TruncateFrom returns a copy of the segment keeping only the entries
// from index i on, with the accumulator re-based so every remaining hop
// MAC stays valid. Shortcut and peer paths are built from truncated
// segments (the part above the crossover AS is unused).
func (s *Segment) TruncateFrom(i int) (*Segment, error) {
	if i < 0 || i >= len(s.ASEntries) {
		return nil, fmt.Errorf("%w: truncate index %d of %d", ErrBadEntry, i, len(s.ASEntries))
	}
	beta, err := s.betaAt(i)
	if err != nil {
		return nil, err
	}
	t := &Segment{Timestamp: s.Timestamp, Beta0: beta}
	t.ASEntries = append(t.ASEntries, s.ASEntries[i:]...)
	return t, nil
}

// BetaAfterFirst returns the accumulator after the first entry — the
// initial SegID of a construction-direction peer segment.
func (s *Segment) BetaAfterFirst() uint16 {
	if len(s.ASEntries) == 0 {
		return s.Beta0
	}
	return scrypto.UpdateBeta(s.Beta0, s.ASEntries[0].MAC)
}

// CloneForExtend returns a copy prepared for appending entries: the
// receiver's AS-entry prefix is shared copy-on-write instead of
// deep-copied. The capacity clamp makes the first append copy the entry
// structs into an owned array, but the per-entry Peers slices and
// Signature messages stay shared with the receiver — they are immutable
// once an entry has been propagated, which is exactly the contract
// beaconing fan-out needs (one received beacon extends into many
// children, and Clone's per-entry deep copies dominated the runner's
// allocation profile). Callers must treat the shared prefix as
// read-only; TestCloneForExtendAliasing pins the safety argument.
func (s *Segment) CloneForExtend() *Segment {
	n := len(s.ASEntries)
	return &Segment{Timestamp: s.Timestamp, Beta0: s.Beta0, ASEntries: s.ASEntries[:n:n]}
}

// Clone returns a deep copy.
func (s *Segment) Clone() *Segment {
	c := *s
	c.ASEntries = append([]ASEntry(nil), s.ASEntries...)
	for i := range c.ASEntries {
		c.ASEntries[i].Peers = append([]PeerEntry(nil), s.ASEntries[i].Peers...)
	}
	return &c
}

// Encode serializes the segment to JSON (control-plane representation).
func (s *Segment) Encode() ([]byte, error) { return json.Marshal(s) }

// Decode parses a serialized segment.
func Decode(b []byte) (*Segment, error) {
	var s Segment
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("segment: decoding: %w", err)
	}
	return &s, nil
}

func (s *Segment) String() string {
	out := fmt.Sprintf("Segment[%s ts=%d", s.ID(), s.Timestamp)
	for _, e := range s.ASEntries {
		out += fmt.Sprintf(" %d>%v>%d", e.Ingress, e.IA, e.Egress)
	}
	return out + "]"
}
