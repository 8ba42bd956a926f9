package slayers

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeSameFlow holds the burst fast-path decode to the full
// decoder. The leader is any packet that decodes; the follower is what
// the router's bytes.Equal guard admits to the leader's run — the same
// header image, the same total length — with fuzzed L4 bytes copied
// over it. Decode(leader) followed by DecodeSameFlow(follower) must
// then agree with a fresh Decode(follower) on error-vs-nil and on the
// whole L4 view. With fix set the follower's checksum is recomputed
// after the overwrite, so arbitrary L4 content reaches the accepting
// side too instead of dying at the checksum.
func FuzzDecodeSameFlow(f *testing.F) {
	for _, mk := range []func() *Packet{udpPacket, scmpEchoPacket} {
		raw, err := mk().Serialize(nil)
		if err != nil {
			f.Fatal(err)
		}
		var p Packet
		if err := p.Decode(raw); err != nil {
			f.Fatal(err)
		}
		l4 := raw[CmnHdrLen+p.Hdr.Path.Len():]
		f.Add(raw, l4, false)                                     // its own sibling
		f.Add(raw, []byte{0x7c, 0xff, 0x20, 0xfb}, true)          // other ports / SCMP type, checksum repaired
		f.Add(raw, append(bytes.Clone(l4[:len(l4)-1]), 1), false) // corrupted checksum
	}

	f.Fuzz(func(t *testing.T, leader, l4 []byte, fix bool) {
		var p Packet
		if p.Decode(leader) != nil {
			return
		}
		hl := CmnHdrLen + p.Hdr.Path.Len()
		follower := bytes.Clone(leader)
		body := follower[hl:]
		copy(body, l4)
		csum := 6 // offset of the UDP checksum
		if p.Hdr.NextHdr == ProtoSCMP {
			csum = 2
		}
		if fix && len(body) >= csum+2 {
			binary.BigEndian.PutUint16(body[csum:], 0)
			binary.BigEndian.PutUint16(body[csum:], checksum(pseudoHeader(&p.Hdr, p.Hdr.NextHdr, len(body)), body))
		}

		errSame := p.DecodeSameFlow(follower, hl)
		var full Packet
		errFull := full.Decode(follower)
		if (errSame == nil) != (errFull == nil) {
			t.Fatalf("DecodeSameFlow err = %v, Decode err = %v", errSame, errFull)
		}
		if errSame != nil {
			return
		}
		if (p.UDP == nil) != (full.UDP == nil) || (p.UDP != nil && *p.UDP != *full.UDP) {
			t.Fatalf("UDP = %+v, want %+v", p.UDP, full.UDP)
		}
		if (p.SCMP == nil) != (full.SCMP == nil) || (p.SCMP != nil && *p.SCMP != *full.SCMP) {
			t.Fatalf("SCMP = %+v, want %+v", p.SCMP, full.SCMP)
		}
		if !bytes.Equal(p.Payload, full.Payload) {
			t.Fatalf("payload = %x, want %x", p.Payload, full.Payload)
		}
	})
}
