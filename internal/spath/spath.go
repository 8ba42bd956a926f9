// Package spath implements the SCION data-plane path: the packed path
// header carried in every SCION packet, consisting of a 4-byte meta
// field, up to three 8-byte info fields (one per path segment), and a
// sequence of 12-byte hop fields.
//
// The layout follows the SCION path type specification:
//
//	PathMeta (4 B):  CurrINF:2 | CurrHF:6 | RSV:6 | Seg0Len:6 | Seg1Len:6 | Seg2Len:6
//	InfoField (8 B): Flags:8 | RSV:8 | SegID:16 | Timestamp:32
//	HopField (12 B): Flags:8 | ExpTime:8 | ConsIngress:16 | ConsEgress:16 | MAC:48
//
// Hop-field MACs are computed with AES-CMAC over the segment accumulator
// (SegID/beta), timestamp, expiry and interface pair; see package scrypto.
package spath

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sciera/internal/scrypto"
)

// Sizes of the wire components.
const (
	MetaLen = 4
	InfoLen = 8
	HopLen  = 12
	// MaxHopsPerSegment is the largest per-segment hop count encodable
	// in the 6-bit segment length fields.
	MaxHopsPerSegment = 63
)

// Info-field flag bits.
const (
	infoFlagConsDir = 0x01 // segment traversed in construction direction
	infoFlagPeer    = 0x02 // segment crosses a peering link
)

// InfoField describes one path segment in the path header.
type InfoField struct {
	ConsDir   bool   // packet travels in the direction the segment was constructed
	Peer      bool   // segment joined via a peering link
	SegID     uint16 // MAC-chaining accumulator (beta)
	Timestamp uint32 // segment creation time (Unix seconds)
}

func (f InfoField) serialize(b []byte) {
	var flags byte
	if f.ConsDir {
		flags |= infoFlagConsDir
	}
	if f.Peer {
		flags |= infoFlagPeer
	}
	b[0] = flags
	b[1] = 0
	binary.BigEndian.PutUint16(b[2:4], f.SegID)
	binary.BigEndian.PutUint32(b[4:8], f.Timestamp)
}

func (f *InfoField) decode(b []byte) {
	f.ConsDir = b[0]&infoFlagConsDir != 0
	f.Peer = b[0]&infoFlagPeer != 0
	f.SegID = binary.BigEndian.Uint16(b[2:4])
	f.Timestamp = binary.BigEndian.Uint32(b[4:8])
}

// HopField authorizes the transit of one AS on a segment.
type HopField struct {
	RouterAlert bool  // deliver to the router's control plane (traceroute)
	ExpTime     uint8 // relative expiry; 0 is the minimum lifetime
	ConsIngress uint16
	ConsEgress  uint16
	MAC         [scrypto.HopMACLen]byte
}

func (h HopField) serialize(b []byte) {
	var flags byte
	if h.RouterAlert {
		flags |= 0x01
	}
	b[0] = flags
	b[1] = h.ExpTime
	binary.BigEndian.PutUint16(b[2:4], h.ConsIngress)
	binary.BigEndian.PutUint16(b[4:6], h.ConsEgress)
	copy(b[6:12], h.MAC[:])
}

func (h *HopField) decode(b []byte) {
	h.RouterAlert = b[0]&0x01 != 0
	h.ExpTime = b[1]
	h.ConsIngress = binary.BigEndian.Uint16(b[2:4])
	h.ConsEgress = binary.BigEndian.Uint16(b[4:6])
	copy(h.MAC[:], b[6:12])
}

// Path is a decoded SCION data-plane path. The zero value is the empty
// path (AS-internal communication).
type Path struct {
	// CurrINF and CurrHF are the indices of the info/hop field the packet
	// is currently being forwarded on.
	CurrINF uint8
	CurrHF  uint8
	// SegLens holds the number of hop fields in each of up to three
	// segments; unused entries are zero.
	SegLens [3]uint8
	Infos   []InfoField
	Hops    []HopField
}

// Errors returned by path operations.
var (
	ErrPathTooShort  = errors.New("spath: buffer too short for path")
	ErrMalformedPath = errors.New("spath: malformed path")
	ErrPathExhausted = errors.New("spath: current hop beyond last hop field")
	ErrTooManyHops   = errors.New("spath: segment exceeds 63 hop fields")
	ErrNoSegments    = errors.New("spath: path has no segments")
)

// IsEmpty reports whether this is the empty (AS-local) path.
func (p *Path) IsEmpty() bool { return len(p.Hops) == 0 }

// NumSegments returns the number of non-empty segments.
func (p *Path) NumSegments() int {
	n := 0
	for _, l := range p.SegLens {
		if l > 0 {
			n++
		}
	}
	return n
}

// Len returns the serialized length in bytes.
func (p *Path) Len() int {
	if p.IsEmpty() {
		return 0
	}
	return MetaLen + len(p.Infos)*InfoLen + len(p.Hops)*HopLen
}

// Validate checks structural consistency between SegLens, Infos and Hops.
func (p *Path) Validate() error {
	if p.IsEmpty() {
		if len(p.Infos) != 0 {
			return fmt.Errorf("%w: info fields without hop fields", ErrMalformedPath)
		}
		return nil
	}
	segs, hops := 0, 0
	seen0 := false
	for _, l := range p.SegLens {
		if l == 0 {
			seen0 = true
			continue
		}
		if seen0 {
			return fmt.Errorf("%w: non-contiguous segment lengths", ErrMalformedPath)
		}
		if l > MaxHopsPerSegment {
			return ErrTooManyHops
		}
		segs++
		hops += int(l)
	}
	if segs == 0 {
		return ErrNoSegments
	}
	if segs != len(p.Infos) {
		return fmt.Errorf("%w: %d segments but %d info fields", ErrMalformedPath, segs, len(p.Infos))
	}
	if hops != len(p.Hops) {
		return fmt.Errorf("%w: segment lengths sum to %d but %d hop fields", ErrMalformedPath, hops, len(p.Hops))
	}
	if int(p.CurrINF) >= segs {
		return fmt.Errorf("%w: CurrINF %d out of range", ErrMalformedPath, p.CurrINF)
	}
	if int(p.CurrHF) >= hops {
		return fmt.Errorf("%w: CurrHF %d out of range", ErrMalformedPath, p.CurrHF)
	}
	if inf := p.infIndexForHop(int(p.CurrHF)); inf != int(p.CurrINF) {
		return fmt.Errorf("%w: CurrHF %d lies in segment %d, not CurrINF %d",
			ErrMalformedPath, p.CurrHF, inf, p.CurrINF)
	}
	return nil
}

// infIndexForHop returns the segment index containing hop index h.
func (p *Path) infIndexForHop(h int) int {
	acc := 0
	for i, l := range p.SegLens {
		acc += int(l)
		if h < acc {
			return i
		}
	}
	return len(p.Infos) // out of range
}

// SerializeTo writes the path into b, which must be at least Len() bytes.
func (p *Path) SerializeTo(b []byte) error {
	if p.IsEmpty() {
		return nil
	}
	if len(b) < p.Len() {
		return ErrPathTooShort
	}
	binary.BigEndian.PutUint32(b[0:4], p.metaWord())
	off := MetaLen
	for _, inf := range p.Infos {
		inf.serialize(b[off : off+InfoLen])
		off += InfoLen
	}
	for _, h := range p.Hops {
		h.serialize(b[off : off+HopLen])
		off += HopLen
	}
	return nil
}

// PatchTo re-encodes only the mutable-in-flight parts of the path —
// the meta word (CurrINF/CurrHF) and the info fields (whose SegID
// accumulators routers advance hop by hop) — into b, which must hold a
// previously serialized copy of this same path. The hop fields, which
// forwarding never mutates, are left untouched. This is the router's
// in-place alternative to a full SerializeTo when advancing a packet.
func (p *Path) PatchTo(b []byte) error {
	if p.IsEmpty() {
		return nil
	}
	if len(b) < p.Len() {
		return ErrPathTooShort
	}
	binary.BigEndian.PutUint32(b[0:4], p.metaWord())
	off := MetaLen
	for _, inf := range p.Infos {
		inf.serialize(b[off : off+InfoLen])
		off += InfoLen
	}
	return nil
}

func (p *Path) metaWord() uint32 {
	return uint32(p.CurrINF&0x3)<<30 |
		uint32(p.CurrHF&0x3f)<<24 |
		uint32(p.SegLens[0]&0x3f)<<12 |
		uint32(p.SegLens[1]&0x3f)<<6 |
		uint32(p.SegLens[2]&0x3f)
}

// DecodeFromBytes parses a path of exactly len(b) bytes. An empty buffer
// decodes to the empty path. Previously allocated slices are reused.
func (p *Path) DecodeFromBytes(b []byte) error {
	if len(b) == 0 {
		*p = Path{Infos: p.Infos[:0], Hops: p.Hops[:0]}
		return nil
	}
	if len(b) < MetaLen {
		return ErrPathTooShort
	}
	meta := binary.BigEndian.Uint32(b[0:4])
	p.CurrINF = uint8(meta >> 30 & 0x3)
	p.CurrHF = uint8(meta >> 24 & 0x3f)
	p.SegLens[0] = uint8(meta >> 12 & 0x3f)
	p.SegLens[1] = uint8(meta >> 6 & 0x3f)
	p.SegLens[2] = uint8(meta & 0x3f)

	segs, hops := 0, 0
	for _, l := range p.SegLens {
		if l > 0 {
			segs++
			hops += int(l)
		}
	}
	want := MetaLen + segs*InfoLen + hops*HopLen
	if len(b) != want {
		return fmt.Errorf("%w: have %d bytes, meta implies %d", ErrMalformedPath, len(b), want)
	}
	p.Infos = p.Infos[:0]
	p.Hops = p.Hops[:0]
	off := MetaLen
	for i := 0; i < segs; i++ {
		var inf InfoField
		inf.decode(b[off : off+InfoLen])
		p.Infos = append(p.Infos, inf)
		off += InfoLen
	}
	for i := 0; i < hops; i++ {
		var h HopField
		h.decode(b[off : off+HopLen])
		p.Hops = append(p.Hops, h)
		off += HopLen
	}
	return p.Validate()
}

// CurrentInfo returns a pointer to the active info field.
func (p *Path) CurrentInfo() (*InfoField, error) {
	if int(p.CurrINF) >= len(p.Infos) {
		return nil, ErrPathExhausted
	}
	return &p.Infos[p.CurrINF], nil
}

// CurrentHop returns a pointer to the active hop field.
func (p *Path) CurrentHop() (*HopField, error) {
	if int(p.CurrHF) >= len(p.Hops) {
		return nil, ErrPathExhausted
	}
	return &p.Hops[p.CurrHF], nil
}

// IsLastHop reports whether the current hop is the final one.
func (p *Path) IsLastHop() bool { return int(p.CurrHF) == len(p.Hops)-1 }

// IsLastHopOfSegment reports whether the current hop is the final hop
// of its segment — the crossover point where a border router switches
// to the next segment (normal joints, shortcuts and peering all cross
// here).
func (p *Path) IsLastHopOfSegment() bool {
	end := 0
	for i := 0; i <= int(p.CurrINF) && i < len(p.SegLens); i++ {
		end += int(p.SegLens[i])
	}
	return int(p.CurrHF) == end-1
}

// IsFirstHopOfSegment reports whether the current hop is the first hop
// of its segment.
func (p *Path) IsFirstHopOfSegment() bool {
	start := 0
	for i := 0; i < int(p.CurrINF) && i < len(p.SegLens); i++ {
		start += int(p.SegLens[i])
	}
	return int(p.CurrHF) == start
}

// IncHop advances to the next hop field, moving CurrINF forward when a
// segment boundary is crossed. It fails when already at the last hop.
func (p *Path) IncHop() error {
	if int(p.CurrHF)+1 >= len(p.Hops) {
		return ErrPathExhausted
	}
	p.CurrHF++
	if inf := p.infIndexForHop(int(p.CurrHF)); inf != int(p.CurrINF) {
		p.CurrINF = uint8(inf)
	}
	return nil
}

// Reverse turns the path around for the return direction, in place: hop
// fields are reversed globally, segments swap order, ConsDir flips, and
// the current pointers reset to the first hop. Reverse is an involution
// up to the current pointers.
func (p *Path) Reverse() error {
	if p.IsEmpty() {
		return nil
	}
	if err := p.Validate(); err != nil {
		return err
	}
	// Validate guarantees the segments are the first len(Infos) entries
	// of SegLens. Reversing the hop sequence as a whole reverses both
	// the segment order and the hops within each segment.
	segs := len(p.Infos)
	for i, j := 0, segs-1; i < j; i, j = i+1, j-1 {
		p.Infos[i], p.Infos[j] = p.Infos[j], p.Infos[i]
		p.SegLens[i], p.SegLens[j] = p.SegLens[j], p.SegLens[i]
	}
	for i := range p.Infos {
		p.Infos[i].ConsDir = !p.Infos[i].ConsDir
	}
	for i, j := 0, len(p.Hops)-1; i < j; i, j = i+1, j-1 {
		p.Hops[i], p.Hops[j] = p.Hops[j], p.Hops[i]
	}
	p.CurrINF = 0
	p.CurrHF = 0
	return nil
}

// Copy returns a deep copy.
func (p *Path) Copy() *Path {
	q := *p
	q.Infos = append([]InfoField(nil), p.Infos...)
	q.Hops = append([]HopField(nil), p.Hops...)
	return &q
}

// Fingerprint returns a stable identifier over the path's interface
// sequence, used for path statistics and "lowest path identifier"
// tie-breaking in the multiping tool.
func (p *Path) Fingerprint() string {
	if p.IsEmpty() {
		return "empty"
	}
	b := make([]byte, 0, len(p.Hops)*4)
	var tmp [4]byte
	for _, h := range p.Hops {
		binary.BigEndian.PutUint16(tmp[0:2], h.ConsIngress)
		binary.BigEndian.PutUint16(tmp[2:4], h.ConsEgress)
		b = append(b, tmp[:]...)
	}
	return fmt.Sprintf("%x", b)
}

func (p *Path) String() string {
	if p.IsEmpty() {
		return "Path{empty}"
	}
	return fmt.Sprintf("Path{inf=%d/%d hf=%d/%d segs=%v}",
		p.CurrINF, len(p.Infos), p.CurrHF, len(p.Hops), p.SegLens)
}
