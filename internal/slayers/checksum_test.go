package slayers

import (
	"encoding/binary"
	"net/netip"
	"testing"

	"sciera/internal/addr"
)

// The 16-bit checksum the wire format started with, kept as the oracle
// for the 64-bit kernel and the in-place pseudo-header sum.

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

// fuzzHost picks a host address of the given kind from seed bytes: the
// zero address, IPv4 (IPv4-mapped on the wire) or IPv6.
func fuzzHost(kind uint8, seed []byte) netip.Addr {
	var a [16]byte
	copy(a[:], seed)
	switch kind % 3 {
	case 1:
		return netip.AddrFrom4([4]byte(a[:4]))
	case 2:
		return netip.AddrFrom16(a)
	}
	return netip.Addr{}
}

// FuzzChecksum holds the checksum kernel and the in-place pseudo-header
// sum to the 16-bit oracle. For arbitrary bytes and start sums the
// 64-bit kernel folds to the checksum the oracle folds to; start sums
// stay below 2^63 so the oracle's plain addition cannot wrap. For a
// packet carrying b as payload, with hosts of each kind, and for b
// itself when Decode accepts it, the pseudo-header sum read from the
// wire folds to the oracle's pseudo-header sum and the oracle verifies
// the checksum Decode verified.
func FuzzChecksum(f *testing.F) {
	ones := make([]byte, 1208)
	for i := range ones {
		ones[i] = 0xff
	}
	raw, err := udpPacket().Serialize(nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range [][]byte{nil, {0x80}, []byte("odd"), ones, make([]byte, 1208), raw} {
		f.Add(b, uint64(0), uint8(0))
		f.Add(b, uint64(0xffff), uint8(5))
	}

	f.Fuzz(func(t *testing.T, b []byte, start uint64, hosts uint8) {
		start &^= 1 << 63
		if got, want := foldChecksum(sum64(b, start)), foldChecksum(sum16(b, start)); got != want {
			t.Fatalf("sum64 folds to %#04x, sum16 to %#04x (len %d, start %#x)", got, want, len(b), start)
		}
		pkt := udpPacket()
		pkt.Hdr.DstIA, pkt.Hdr.SrcIA = addr.IA(start), addr.IA(^start)
		pkt.Hdr.DstHost = fuzzHost(hosts, b)
		pkt.Hdr.SrcHost = fuzzHost(hosts/3, append([]byte{0x20, 0x01}, b...))
		pkt.Payload = b
		wire, err := pkt.Serialize(nil)
		if err != nil {
			return // too large for one packet
		}
		for _, w := range [][]byte{wire, b} {
			var p Packet
			if p.Decode(w) != nil {
				continue
			}
			hl := CmnHdrLen + p.Hdr.Path.Len()
			l4 := w[hl:]
			ph := pseudoHeader(&p.Hdr, p.Hdr.NextHdr, len(l4))
			if got, want := foldChecksum(pseudoSum(w, p.Hdr.NextHdr, len(l4))), foldChecksum(sum16(ph[:], 0)); got != want {
				t.Fatalf("pseudo-header from the wire folds to %#04x, built one to %#04x (hosts %v, %v)",
					got, want, p.Hdr.SrcHost, p.Hdr.DstHost)
			}
			if c := checksum(ph, l4); c != 0 {
				t.Fatalf("Decode accepted a packet the oracle sums to %#04x", c)
			}
		}
	})
}

// BenchmarkChecksum times the kernel against the 16-bit oracle on an
// MTU-sized L4 section.
func BenchmarkChecksum(b *testing.B) {
	buf := make([]byte, 1208)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	for _, k := range []struct {
		name string
		sum  func([]byte, uint64) uint64
	}{{"sum64", sum64}, {"sum16", sum16}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				_ = foldChecksum(k.sum(buf, 0))
			}
		})
	}
}
