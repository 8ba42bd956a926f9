// Package slayers implements the SCION wire format in the style of
// gopacket's layers: every message on the (simulated or loopback) network
// is a fully serialized SCION packet, decoded into preallocated layer
// structs so the hot path allocates nothing.
//
// A SCION packet is:
//
//	common+address header (56 B) | path header (variable) | L4 (UDP or SCMP) | payload
//
// The common header layout:
//
//	 0      Version        (1 B, currently 1)
//	 1      TrafficClass   (1 B)
//	 2      NextHdr        (1 B; 17 = UDP, 202 = SCMP)
//	 3      PathType       (1 B; 0 = empty, 1 = SCION)
//	 4-5    TotalLen       (2 B, entire packet)
//	 6-7    HdrLen         (2 B, common+address+path)
//	 8-15   DstIA          (8 B)
//	16-23   SrcIA          (8 B)
//	24-39   DstHost        (16 B, IPv6 or IPv4-mapped)
//	40-55   SrcHost        (16 B)
package slayers

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"

	"sciera/internal/addr"
	"sciera/internal/spath"
)

// Protocol numbers for the NextHdr field.
const (
	ProtoUDP  = 17
	ProtoSCMP = 202
)

// Path types.
const (
	PathTypeEmpty = 0
	PathTypeSCION = 1
)

// Version is the SCION header version this package implements.
const Version = 1

// CmnHdrLen is the length of the common+address header.
const CmnHdrLen = 56

// MaxPacketLen bounds packet sizes (fits the 16-bit TotalLen field).
const MaxPacketLen = 1<<16 - 1

// Decode errors.
var (
	ErrTruncated      = errors.New("slayers: truncated packet")
	ErrBadVersion     = errors.New("slayers: unsupported version")
	ErrBadLength      = errors.New("slayers: length fields inconsistent")
	ErrUnknownProto   = errors.New("slayers: unknown L4 protocol")
	ErrUnknownPath    = errors.New("slayers: unknown path type")
	ErrPacketTooLarge = errors.New("slayers: packet exceeds maximum length")
)

// SCION is the decoded common+address+path header.
type SCION struct {
	TrafficClass uint8
	NextHdr      uint8
	DstIA, SrcIA addr.IA
	DstHost      netip.Addr
	SrcHost      netip.Addr
	Path         spath.Path
}

// hdrLen returns the serialized header length (common + path).
func (s *SCION) hdrLen() int { return CmnHdrLen + s.Path.Len() }

func (s *SCION) serializeTo(b []byte, totalLen int) error {
	hl := s.hdrLen()
	if len(b) < hl {
		return ErrTruncated
	}
	if totalLen > MaxPacketLen {
		return ErrPacketTooLarge
	}
	b[0] = Version
	b[1] = s.TrafficClass
	b[2] = s.NextHdr
	if s.Path.IsEmpty() {
		b[3] = PathTypeEmpty
	} else {
		b[3] = PathTypeSCION
	}
	binary.BigEndian.PutUint16(b[4:6], uint16(totalLen))
	binary.BigEndian.PutUint16(b[6:8], uint16(hl))
	addr.PutIA(b[8:16], s.DstIA)
	addr.PutIA(b[16:24], s.SrcIA)
	d16 := as16(s.DstHost)
	s16 := as16(s.SrcHost)
	copy(b[24:40], d16[:])
	copy(b[40:56], s16[:])
	return s.Path.SerializeTo(b[CmnHdrLen:hl])
}

// decodeFrom parses the header and returns (headerLen, totalLen).
func (s *SCION) decodeFrom(b []byte) (int, int, error) {
	if len(b) < CmnHdrLen {
		return 0, 0, ErrTruncated
	}
	if b[0] != Version {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadVersion, b[0])
	}
	s.TrafficClass = b[1]
	s.NextHdr = b[2]
	pathType := b[3]
	totalLen := int(binary.BigEndian.Uint16(b[4:6]))
	hdrLen := int(binary.BigEndian.Uint16(b[6:8]))
	if hdrLen < CmnHdrLen || hdrLen > totalLen || totalLen != len(b) {
		return 0, 0, fmt.Errorf("%w: hdr=%d total=%d buf=%d", ErrBadLength, hdrLen, totalLen, len(b))
	}
	s.DstIA = addr.GetIA(b[8:16])
	s.SrcIA = addr.GetIA(b[16:24])
	s.DstHost = fromAs16(b[24:40])
	s.SrcHost = fromAs16(b[40:56])
	switch pathType {
	case PathTypeEmpty:
		if hdrLen != CmnHdrLen {
			return 0, 0, fmt.Errorf("%w: empty path with %d path bytes", ErrBadLength, hdrLen-CmnHdrLen)
		}
		if err := s.Path.DecodeFromBytes(nil); err != nil {
			return 0, 0, err
		}
	case PathTypeSCION:
		if err := s.Path.DecodeFromBytes(b[CmnHdrLen:hdrLen]); err != nil {
			return 0, 0, err
		}
	default:
		return 0, 0, fmt.Errorf("%w: %d", ErrUnknownPath, pathType)
	}
	return hdrLen, totalLen, nil
}

// as16 returns the 16-byte representation of an address (IPv4 becomes
// IPv4-mapped IPv6). The zero Addr maps to all zeroes.
func as16(a netip.Addr) [16]byte {
	if !a.IsValid() {
		return [16]byte{}
	}
	return a.As16()
}

func fromAs16(b []byte) netip.Addr {
	var a16 [16]byte
	copy(a16[:], b)
	a := netip.AddrFrom16(a16)
	if a == netip.AddrFrom16([16]byte{}) {
		return netip.Addr{}
	}
	return a.Unmap()
}

// UDP is the SCION/UDP L4 header (8 bytes + payload).
type UDP struct {
	SrcPort, DstPort uint16
}

const udpHdrLen = 8

// Packet is a complete SCION packet: header, one L4, and payload.
// Exactly one of UDP/SCMP must be non-nil, matching Hdr.NextHdr.
type Packet struct {
	Hdr     SCION
	UDP     *UDP
	SCMP    *SCMP
	Payload []byte

	// scratch reuses the SCMP struct across decodes.
	scmpScratch SCMP
	udpScratch  UDP
	// phScratch caches the checksum pseudo-header built by the last
	// full Decode. DecodeSameFlow reuses it directly: its caller
	// guarantees a byte-identical header image (addresses, proto) and
	// total length, so the pseudo-header of every follower in a burst
	// equals the leader's. Invalidated by DecodeTruncated, which leaves
	// Hdr only partially populated.
	phScratch [52]byte
	phSum     uint64
	phValid   bool
}

// totalLen computes the serialized packet length, validating the L4
// configuration.
func (p *Packet) totalLen() (int, error) {
	var l4Len int
	switch {
	case p.UDP != nil && p.SCMP == nil:
		l4Len = udpHdrLen + len(p.Payload)
	case p.SCMP != nil && p.UDP == nil:
		l4Len = p.SCMP.len() + len(p.Payload)
	default:
		return 0, errors.New("slayers: exactly one of UDP/SCMP must be set")
	}
	total := p.Hdr.hdrLen() + l4Len
	if total > MaxPacketLen {
		return 0, ErrPacketTooLarge
	}
	return total, nil
}

// Serialize renders the packet, appending to dst (which may be nil).
// Passing a scratch buffer with spare capacity (buf[:0]) makes the call
// allocation-free; SerializeTo is the fixed-buffer variant.
func (p *Packet) Serialize(dst []byte) ([]byte, error) {
	total, err := p.totalLen()
	if err != nil {
		return nil, err
	}
	off := len(dst)
	if cap(dst) >= off+total {
		dst = dst[:off+total]
	} else {
		dst = append(dst, make([]byte, total)...)
	}
	if _, err := p.SerializeTo(dst[off:]); err != nil {
		return nil, err
	}
	return dst, nil
}

// SerializeTo renders the packet into the caller-provided buffer and
// returns the number of bytes written. The buffer must hold the whole
// packet; nothing is allocated.
func (p *Packet) SerializeTo(b []byte) (int, error) {
	total, err := p.totalLen()
	if err != nil {
		return 0, err
	}
	if len(b) < total {
		return 0, ErrTruncated
	}
	b = b[:total]
	hl := p.Hdr.hdrLen()
	l4Len := total - hl
	if p.UDP != nil {
		p.Hdr.NextHdr = ProtoUDP
	} else {
		p.Hdr.NextHdr = ProtoSCMP
	}
	if err := p.Hdr.serializeTo(b, total); err != nil {
		return 0, err
	}
	l4 := b[hl:]
	if p.UDP != nil {
		binary.BigEndian.PutUint16(l4[0:2], p.UDP.SrcPort)
		binary.BigEndian.PutUint16(l4[2:4], p.UDP.DstPort)
		binary.BigEndian.PutUint16(l4[4:6], uint16(l4Len))
		copy(l4[udpHdrLen:], p.Payload)
		binary.BigEndian.PutUint16(l4[6:8], 0)
		binary.BigEndian.PutUint16(l4[6:8], checksum(pseudoHeader(&p.Hdr, ProtoUDP, l4Len), l4))
	} else {
		p.SCMP.serializeTo(l4)
		copy(l4[p.SCMP.len():], p.Payload)
		binary.BigEndian.PutUint16(l4[2:4], 0)
		binary.BigEndian.PutUint16(l4[2:4], checksum(pseudoHeader(&p.Hdr, ProtoSCMP, l4Len), l4))
	}
	return total, nil
}

// PatchPath writes the packet's current path pointers (and the info
// fields' in-flight SegID accumulators) back into raw, the buffer the
// packet was decoded from. It is the zero-copy alternative to a full
// re-serialization when — as on the router's forwarding fast path —
// nothing but the path state changed: addresses, hop fields, L4 and
// payload bytes are reused verbatim, and the checksum (which does not
// cover the path) stays valid.
func (p *Packet) PatchPath(raw []byte) error {
	if len(raw) < CmnHdrLen {
		return ErrTruncated
	}
	hl := int(binary.BigEndian.Uint16(raw[6:8]))
	if hl != p.Hdr.hdrLen() || hl > len(raw) {
		return fmt.Errorf("%w: patch into buffer with different header shape", ErrBadLength)
	}
	return p.Hdr.Path.PatchTo(raw[CmnHdrLen:hl])
}

// Decode parses a full packet. The payload slice aliases b (NoCopy-style);
// callers that retain the payload beyond the lifetime of b must copy it.
func (p *Packet) Decode(b []byte) error {
	p.phValid = false
	hl, total, err := p.Hdr.decodeFrom(b)
	if err != nil {
		return err
	}
	l4 := b[hl:total]
	p.UDP, p.SCMP = nil, nil
	switch p.Hdr.NextHdr {
	case ProtoUDP:
		if len(l4) < udpHdrLen {
			return ErrTruncated
		}
		p.phScratch = pseudoHeader(&p.Hdr, ProtoUDP, len(l4))
		p.phSum, p.phValid = sum16(p.phScratch[:], 0), true
		if got := foldChecksum(sum16(l4, p.phSum)); got != 0 {
			return fmt.Errorf("slayers: UDP checksum mismatch (%#04x)", got)
		}
		p.udpScratch.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		p.udpScratch.DstPort = binary.BigEndian.Uint16(l4[2:4])
		if int(binary.BigEndian.Uint16(l4[4:6])) != len(l4) {
			return fmt.Errorf("%w: UDP length", ErrBadLength)
		}
		p.UDP = &p.udpScratch
		p.Payload = l4[udpHdrLen:]
	case ProtoSCMP:
		p.phScratch = pseudoHeader(&p.Hdr, ProtoSCMP, len(l4))
		p.phSum, p.phValid = sum16(p.phScratch[:], 0), true
		if got := foldChecksum(sum16(l4, p.phSum)); got != 0 {
			return fmt.Errorf("slayers: SCMP checksum mismatch (%#04x)", got)
		}
		n, err := p.scmpScratch.decodeFrom(l4)
		if err != nil {
			return err
		}
		p.SCMP = &p.scmpScratch
		p.Payload = l4[n:]
	default:
		return fmt.Errorf("%w: %d", ErrUnknownProto, p.Hdr.NextHdr)
	}
	return nil
}

// DecodeSameFlow decodes only the L4 section of b into p, reusing the
// header state already in p from a previous full Decode of a packet
// with a byte-identical header image. The caller guarantees (typically
// with one bytes.Equal over the first hdrLen bytes, which covers
// TotalLen) that b[:hdrLen] matches the reference packet's header as
// received and that len(b) equals its total length; the addresses and
// NextHdr in p.Hdr are then valid for b too and feed the checksum
// pseudo-header, while the path state is not consulted at all (it may
// have advanced past the reference decode).
func (p *Packet) DecodeSameFlow(b []byte, hdrLen int) error {
	if hdrLen < CmnHdrLen || hdrLen > len(b) {
		return ErrTruncated
	}
	l4 := b[hdrLen:]
	p.UDP, p.SCMP = nil, nil
	switch p.Hdr.NextHdr {
	case ProtoUDP:
		if len(l4) < udpHdrLen {
			return ErrTruncated
		}
		if !p.phValid {
			p.phScratch = pseudoHeader(&p.Hdr, ProtoUDP, len(l4))
			p.phSum, p.phValid = sum16(p.phScratch[:], 0), true
		}
		if got := foldChecksum(sum16(l4, p.phSum)); got != 0 {
			return fmt.Errorf("slayers: UDP checksum mismatch (%#04x)", got)
		}
		p.udpScratch.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		p.udpScratch.DstPort = binary.BigEndian.Uint16(l4[2:4])
		if int(binary.BigEndian.Uint16(l4[4:6])) != len(l4) {
			return fmt.Errorf("%w: UDP length", ErrBadLength)
		}
		p.UDP = &p.udpScratch
		p.Payload = l4[udpHdrLen:]
	case ProtoSCMP:
		if !p.phValid {
			p.phScratch = pseudoHeader(&p.Hdr, ProtoSCMP, len(l4))
			p.phSum, p.phValid = sum16(p.phScratch[:], 0), true
		}
		if got := foldChecksum(sum16(l4, p.phSum)); got != 0 {
			return fmt.Errorf("slayers: SCMP checksum mismatch (%#04x)", got)
		}
		n, err := p.scmpScratch.decodeFrom(l4)
		if err != nil {
			return err
		}
		p.SCMP = &p.scmpScratch
		p.Payload = l4[n:]
	default:
		return fmt.Errorf("%w: %d", ErrUnknownProto, p.Hdr.NextHdr)
	}
	return nil
}

// DecodeTruncated parses a packet that may have been cut short — the
// quote carried in an SCMP error message, which routers cap at 512
// bytes regardless of the offending packet's size. It deliberately
// skips every check that needs the full packet (checksums, total-length
// consistency, UDP length) and parses only as far as the L4
// demultiplexing information: UDP src/dst ports, or the SCMP type and
// identifier. Optional SCMP fields missing from the truncation are left
// zero; Payload is whatever bytes remain. The header itself (through
// the path) must be complete — a quote shorter than its own header
// identifies nothing and is rejected.
func (p *Packet) DecodeTruncated(b []byte) error {
	p.phValid = false
	if len(b) < CmnHdrLen {
		return ErrTruncated
	}
	if b[0] != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, b[0])
	}
	p.Hdr.TrafficClass = b[1]
	p.Hdr.NextHdr = b[2]
	pathType := b[3]
	hdrLen := int(binary.BigEndian.Uint16(b[6:8]))
	if hdrLen < CmnHdrLen || hdrLen > len(b) {
		return ErrTruncated
	}
	p.Hdr.DstIA = addr.GetIA(b[8:16])
	p.Hdr.SrcIA = addr.GetIA(b[16:24])
	p.Hdr.DstHost = fromAs16(b[24:40])
	p.Hdr.SrcHost = fromAs16(b[40:56])
	switch pathType {
	case PathTypeEmpty:
		if err := p.Hdr.Path.DecodeFromBytes(nil); err != nil {
			return err
		}
	case PathTypeSCION:
		if err := p.Hdr.Path.DecodeFromBytes(b[CmnHdrLen:hdrLen]); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: %d", ErrUnknownPath, pathType)
	}
	l4 := b[hdrLen:]
	p.UDP, p.SCMP = nil, nil
	p.Payload = nil
	switch p.Hdr.NextHdr {
	case ProtoUDP:
		if len(l4) < 4 {
			return ErrTruncated
		}
		p.udpScratch.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		p.udpScratch.DstPort = binary.BigEndian.Uint16(l4[2:4])
		p.UDP = &p.udpScratch
		if len(l4) > udpHdrLen {
			p.Payload = l4[udpHdrLen:]
		}
	case ProtoSCMP:
		if len(l4) < scmpCmnLen {
			return ErrTruncated
		}
		if err := p.scmpScratch.decodeTruncatedFrom(l4); err != nil {
			return err
		}
		p.SCMP = &p.scmpScratch
		if n := p.SCMP.len(); len(l4) > n {
			p.Payload = l4[n:]
		}
	default:
		return fmt.Errorf("%w: %d", ErrUnknownProto, p.Hdr.NextHdr)
	}
	return nil
}

// QuotedPort returns the underlay port an SCMP error message belongs
// to: the UDP source port, or the SCMP identifier, of the offending
// packet quoted in the error's payload. Routers cap the quote at 512
// bytes, so a strict decode would reject errors quoting large packets —
// the quote is parsed tolerantly, only as far as the L4 ports require.
func QuotedPort(quote []byte) (uint16, bool) {
	var quoted Packet
	if err := quoted.DecodeTruncated(quote); err != nil {
		return 0, false
	}
	switch {
	case quoted.UDP != nil:
		return quoted.UDP.SrcPort, true
	case quoted.SCMP != nil:
		return quoted.SCMP.Identifier, true
	}
	return 0, false
}

// pseudoHeader builds the checksum pseudo-header binding L4 data to the
// SCION addresses, preventing redirection of checksummed payloads.
func pseudoHeader(h *SCION, proto uint8, l4Len int) [52]byte {
	var ph [52]byte
	addr.PutIA(ph[0:8], h.SrcIA)
	addr.PutIA(ph[8:16], h.DstIA)
	s16 := as16(h.SrcHost)
	d16 := as16(h.DstHost)
	copy(ph[16:32], s16[:])
	copy(ph[32:48], d16[:])
	binary.BigEndian.PutUint16(ph[48:50], uint16(l4Len))
	ph[51] = proto
	return ph
}

// checksum computes the Internet ones-complement checksum over the
// pseudo-header and the L4 bytes.
func checksum(ph [52]byte, l4 []byte) uint16 {
	return foldChecksum(sum16(l4, sum16(ph[:], 0)))
}

// foldChecksum folds an unfolded sum16 accumulator down to the final
// ones-complement checksum.
func foldChecksum(sum uint64) uint16 {
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// sum16 accumulates b as big-endian 16-bit words into sum (no folding),
// eight bytes per step on the aligned middle. A uint64 accumulator
// cannot overflow before folding: each step adds < 2^18, so well over
// 2^45 bytes would be needed.
func sum16(b []byte, sum uint64) uint64 {
	for len(b) >= 8 {
		v := binary.BigEndian.Uint64(b)
		sum += v>>48 + v>>32&0xffff + v>>16&0xffff + v&0xffff
		b = b[8:]
	}
	for len(b) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	return sum
}
