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
	"math/bits"
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

// decodeFrom parses the header and returns its length (common + path).
func (s *SCION) decodeFrom(b []byte) (int, error) {
	hdrLen, err := HeaderLen(b)
	if err != nil {
		return 0, err
	}
	s.TrafficClass = b[1]
	s.NextHdr = b[2]
	s.DstIA, s.SrcIA = DstIA(b), SrcIA(b)
	s.DstHost, s.SrcHost = DstHost(b), SrcHost(b)
	if err := s.Path.DecodeFromBytes(b[CmnHdrLen:hdrLen]); err != nil {
		return 0, err
	}
	return hdrLen, nil
}

// HeaderLen checks the common header of b — version, the length fields
// against len(b) and the path type — and returns the length of the
// common and path header. It is every check Decode makes before the
// path and the L4; the router reads the rest of a packet in place.
func HeaderLen(b []byte) (int, error) {
	if len(b) < CmnHdrLen {
		return 0, ErrTruncated
	}
	if b[0] != Version {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, b[0])
	}
	totalLen := int(binary.BigEndian.Uint16(b[4:6]))
	hdrLen := int(binary.BigEndian.Uint16(b[6:8]))
	if hdrLen < CmnHdrLen || hdrLen > totalLen || totalLen != len(b) {
		return 0, fmt.Errorf("%w: hdr=%d total=%d buf=%d", ErrBadLength, hdrLen, totalLen, len(b))
	}
	switch b[3] {
	case PathTypeEmpty:
		if hdrLen != CmnHdrLen {
			return 0, fmt.Errorf("%w: empty path with %d path bytes", ErrBadLength, hdrLen-CmnHdrLen)
		}
	case PathTypeSCION:
	default:
		return 0, fmt.Errorf("%w: %d", ErrUnknownPath, b[3])
	}
	return hdrLen, nil
}

// DstIA, SrcIA, DstHost and SrcHost read the address header of b, a
// header image of at least CmnHdrLen bytes, in place.
func DstIA(b []byte) addr.IA      { return addr.GetIA(b[8:16]) }
func SrcIA(b []byte) addr.IA      { return addr.GetIA(b[16:24]) }
func DstHost(b []byte) netip.Addr { return fromAs16(b[24:40]) }
func SrcHost(b []byte) netip.Addr { return fromAs16(b[40:56]) }

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
	csum := l4[2:4]
	if p.UDP != nil {
		binary.BigEndian.PutUint16(l4[0:2], p.UDP.SrcPort)
		binary.BigEndian.PutUint16(l4[2:4], p.UDP.DstPort)
		binary.BigEndian.PutUint16(l4[4:6], uint16(l4Len))
		copy(l4[udpHdrLen:], p.Payload)
		csum = l4[6:8]
	} else {
		p.SCMP.serializeTo(l4)
		copy(l4[p.SCMP.len():], p.Payload)
	}
	binary.BigEndian.PutUint16(csum, 0)
	binary.BigEndian.PutUint16(csum, foldChecksum(sum64(l4, pseudoSum(b, p.Hdr.NextHdr, l4Len))))
	return total, nil
}

// Decode parses a full packet. The payload slice aliases b (NoCopy-style);
// callers that retain the payload beyond the lifetime of b must copy it.
func (p *Packet) Decode(b []byte) error {
	hl, err := p.Hdr.decodeFrom(b)
	if err != nil {
		return err
	}
	return p.DecodeSameFlow(b, hl)
}

// DecodeSameFlow decodes the L4 section of b, the bytes after its
// hdrLen-byte common and path header, into UDP, SCMP and Payload, and
// verifies its checksum. It is the second half of Decode and reads
// nothing from p.Hdr: the protocol and the pseudo-header come from b's
// own header bytes, which the caller has checked — with HeaderLen, or
// (the name's case) by comparing them with a packet Decode accepted:
// one bytes.Equal over the first hdrLen bytes, which covers TotalLen,
// admits a follower to its leader's run.
func (p *Packet) DecodeSameFlow(b []byte, hdrLen int) error {
	if hdrLen < CmnHdrLen || hdrLen > len(b) {
		return ErrTruncated
	}
	l4 := b[hdrLen:]
	p.UDP, p.SCMP = nil, nil
	proto := b[2]
	switch {
	case proto != ProtoUDP && proto != ProtoSCMP:
		return fmt.Errorf("%w: %d", ErrUnknownProto, proto)
	case proto == ProtoUDP && len(l4) < udpHdrLen:
		return ErrTruncated
	}
	if got := foldChecksum(sum64(l4, pseudoSum(b, proto, len(l4)))); got != 0 {
		return fmt.Errorf("slayers: L4 (protocol %d) checksum mismatch (%#04x)", proto, got)
	}
	if proto == ProtoSCMP {
		n, err := p.scmpScratch.decodeFrom(l4)
		if err != nil {
			return err
		}
		p.SCMP, p.Payload = &p.scmpScratch, l4[n:]
		return nil
	}
	p.udpScratch.SrcPort = binary.BigEndian.Uint16(l4[0:2])
	p.udpScratch.DstPort = binary.BigEndian.Uint16(l4[2:4])
	if int(binary.BigEndian.Uint16(l4[4:6])) != len(l4) {
		return fmt.Errorf("%w: UDP length", ErrBadLength)
	}
	p.UDP, p.Payload = &p.udpScratch, l4[udpHdrLen:]
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
	p.Hdr.DstIA, p.Hdr.SrcIA = DstIA(b), SrcIA(b)
	p.Hdr.DstHost, p.Hdr.SrcHost = DstHost(b), SrcHost(b)
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

// pseudoSum is the unfolded ones'-complement sum of the checksum
// pseudo-header of b, whose L4 section is l4Len bytes of protocol
// proto: the addresses — SrcIA, DstIA, SrcHost, DstHost — then the L4
// length and the protocol, which binds the L4 to its addresses. The
// address header holds the same 48 bytes in another order of 16-bit
// words, and a ones'-complement sum does not depend on that order, so
// it is summed in place: sum64's steps for exactly six words, unrolled
// because every packet at every hop pays for it.
func pseudoSum(b []byte, proto uint8, l4Len int) uint64 {
	a := b[8:CmnHdrLen]
	s, c := bits.Add64(uint64(uint16(l4Len))+uint64(proto), binary.BigEndian.Uint64(a[0:8]), 0)
	s, c = bits.Add64(s, binary.BigEndian.Uint64(a[8:16]), c)
	s, c = bits.Add64(s, binary.BigEndian.Uint64(a[16:24]), c)
	s, c = bits.Add64(s, binary.BigEndian.Uint64(a[24:32]), c)
	s, c = bits.Add64(s, binary.BigEndian.Uint64(a[32:40]), c)
	s, c = bits.Add64(s, binary.BigEndian.Uint64(a[40:48]), c)
	s, _ = bits.Add64(s, 0, c) // cannot carry: see sum64
	return s
}

// foldChecksum folds an unfolded sum64 accumulator down to the final
// ones-complement checksum.
func foldChecksum(sum uint64) uint16 {
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// PatchUint32 writes v big-endian at b[off:] and repairs the Internet
// checksum at b[csumOff:] incrementally (RFC 1624 eqn. 3: HC' = ~(~HC +
// ~m + m')), so a serialised packet is re-stamped instead of serialised
// again. The field must sit at an even offset from the start of the
// checksummed bytes: it is exactly two checksum words.
func PatchUint32(b []byte, csumOff, off int, v uint32) {
	old := binary.BigEndian.Uint32(b[off:])
	binary.BigEndian.PutUint32(b[off:], v)
	hc := binary.BigEndian.Uint16(b[csumOff:])
	sum := uint64(^hc) +
		uint64(^uint16(old>>16)) + uint64(uint16(v>>16)) +
		uint64(^uint16(old)) + uint64(uint16(v))
	binary.BigEndian.PutUint16(b[csumOff:], foldChecksum(sum))
}

// sum64 adds b, read as big-endian 16-bit words, to the ones'-complement
// accumulator sum, 64 bits at a time with end-around carry: 2^16 ≡ 1
// modulo 0xffff, so a 64-bit word is worth its four 16-bit words, and
// foldChecksum of the result is the Internet checksum. Four words per
// step keep the carry chain in the flags register.
func sum64(b []byte, sum uint64) uint64 {
	var c uint64
	for len(b) >= 32 {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[0:8]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[8:16]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[16:24]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[24:32]), c)
		b = b[32:]
	}
	for len(b) >= 8 {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b), c)
		b = b[8:]
	}
	for len(b) >= 2 {
		sum, c = bits.Add64(sum, uint64(binary.BigEndian.Uint16(b)), c)
		b = b[2:]
	}
	if len(b) == 1 {
		sum, c = bits.Add64(sum, uint64(b[0])<<8, c)
	}
	// The last carry goes back in. That cannot carry again: a step
	// ends on 2^64-1 with a carry out only if it began there with one.
	sum, _ = bits.Add64(sum, 0, c)
	return sum
}
