package slayers

import (
	"bytes"
	"testing"
)

func scmpEchoPacket() *Packet {
	p := udpPacket()
	p.UDP = nil
	p.SCMP = &SCMP{Type: SCMPEchoRequest, Identifier: 40001, SeqNo: 3}
	p.Payload = []byte("probe")
	return p
}

// TestDecodeSameFlowMatchesDecode verifies the burst fast-path decode:
// after a full Decode of a reference packet, DecodeSameFlow on a
// same-header sibling must yield exactly the L4 view a full Decode
// would — for UDP and SCMP flows alike — including rejecting a
// corrupted checksum.
func TestDecodeSameFlowMatchesDecode(t *testing.T) {
	ref := udpPacket()
	rawRef, err := ref.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sibling: identical header, different ports and payload bytes (same
	// lengths, so the header image — which covers TotalLen — matches).
	sib := udpPacket()
	sib.UDP = &UDP{SrcPort: 31999, DstPort: 8443}
	sib.Payload = []byte("HELLO SCIERA")
	rawSib, err := sib.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}

	var p Packet
	if err := p.Decode(rawRef); err != nil {
		t.Fatal(err)
	}
	hl := CmnHdrLen + p.Hdr.Path.Len()
	if !bytes.Equal(rawRef[:hl], rawSib[:hl]) {
		t.Fatal("test setup: sibling header image differs")
	}
	if err := p.DecodeSameFlow(rawSib, hl); err != nil {
		t.Fatal(err)
	}
	var full Packet
	if err := full.Decode(rawSib); err != nil {
		t.Fatal(err)
	}
	if p.UDP == nil || *p.UDP != *full.UDP {
		t.Errorf("UDP = %+v, want %+v", p.UDP, full.UDP)
	}
	if !bytes.Equal(p.Payload, full.Payload) {
		t.Errorf("payload = %q, want %q", p.Payload, full.Payload)
	}

	bad := append([]byte(nil), rawSib...)
	bad[len(bad)-2] ^= 0x40
	if err := p.DecodeSameFlow(bad, hl); err == nil {
		t.Error("corrupted sibling passed DecodeSameFlow")
	}

	// SCMP flow: echo siblings share the header; identifiers differ.
	refS := scmpEchoPacket()
	rawRefS, _ := refS.Serialize(nil)
	sibS := scmpEchoPacket()
	sibS.SCMP.Identifier = 40002
	sibS.SCMP.SeqNo = 9
	rawSibS, _ := sibS.Serialize(nil)
	var q Packet
	if err := q.Decode(rawRefS); err != nil {
		t.Fatal(err)
	}
	hlS := CmnHdrLen + q.Hdr.Path.Len()
	if err := q.DecodeSameFlow(rawSibS, hlS); err != nil {
		t.Fatal(err)
	}
	if q.SCMP == nil || q.SCMP.Identifier != 40002 || q.SCMP.SeqNo != 9 {
		t.Errorf("SCMP = %+v", q.SCMP)
	}
	if q.UDP != nil {
		t.Error("stale UDP layer survived an SCMP same-flow decode")
	}
}
