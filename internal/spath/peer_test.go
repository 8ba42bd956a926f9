package spath

import (
	"reflect"
	"testing"

	"sciera/internal/scrypto"
)

func testKey(seed string) scrypto.HopKey {
	return scrypto.DeriveHopKey([]byte(seed), 0)
}

// TestSegmentBoundaryHelpers walks the 2+3 sample path and checks the
// first/last-of-segment predicates at every position.
func TestSegmentBoundaryHelpers(t *testing.T) {
	p := samplePath(t)
	wantFirst := []bool{true, false, true, false, false}
	wantLast := []bool{false, true, false, false, true}
	for i := 0; ; i++ {
		if got := p.IsFirstHopOfSegment(); got != wantFirst[i] {
			t.Errorf("hop %d: IsFirstHopOfSegment = %v", i, got)
		}
		if got := p.IsLastHopOfSegment(); got != wantLast[i] {
			t.Errorf("hop %d: IsLastHopOfSegment = %v", i, got)
		}
		if p.IsLastHop() {
			break
		}
		if err := p.IncHop(); err != nil {
			t.Fatal(err)
		}
	}
	// A single-segment single-hop path is both first and last.
	q := &Path{
		SegLens: [3]uint8{1, 0, 0},
		Infos:   []InfoField{{ConsDir: true, SegID: 1}},
		Hops:    []HopField{{ExpTime: 63}},
	}
	if !q.IsFirstHopOfSegment() || !q.IsLastHopOfSegment() {
		t.Error("single-hop segment not recognized as both boundary kinds")
	}
}

// TestVerifyPeerHopAlgebra pins the peer verification rule: the MAC is
// checked against the accumulator as-is, and — unlike VerifyHop — the
// accumulator is left untouched in both traversal directions.
func TestVerifyPeerHopAlgebra(t *testing.T) {
	key := testKey("peer-as")
	const beta, ts = uint16(0x5a5a), uint32(7777)
	mac, err := scrypto.ComputeHopMAC(key, scrypto.HopMACInput{
		Beta: beta, Timestamp: ts, ExpTime: 63, ConsIngress: 9, ConsEgress: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	hop := &HopField{ExpTime: 63, ConsIngress: 9, ConsEgress: 2, MAC: mac}

	for _, consDir := range []bool{false, true} {
		info := &InfoField{ConsDir: consDir, Peer: true, SegID: beta, Timestamp: ts}
		if !VerifyPeerHop(key, info, hop) {
			t.Errorf("consDir=%v: genuine peer hop rejected", consDir)
		}
		if info.SegID != beta {
			t.Errorf("consDir=%v: VerifyPeerHop mutated the accumulator", consDir)
		}
	}

	// Wrong accumulator, wrong key, tampered MAC all fail.
	bad := &InfoField{Peer: true, SegID: beta ^ 1, Timestamp: ts}
	if VerifyPeerHop(key, bad, hop) {
		t.Error("wrong accumulator accepted")
	}
	good := &InfoField{Peer: true, SegID: beta, Timestamp: ts}
	if VerifyPeerHop(testKey("other-as"), good, hop) {
		t.Error("wrong key accepted")
	}
	tampered := *hop
	tampered.MAC[5] ^= 0x80
	if VerifyPeerHop(key, good, &tampered) {
		t.Error("tampered MAC accepted")
	}
	// VerifyHop with the same inputs must NOT accept a peer hop in
	// non-ConsDir (it would fold the MAC first).
	foldInfo := &InfoField{ConsDir: false, Peer: true, SegID: beta, Timestamp: ts}
	if VerifyHop(key, foldInfo, hop) {
		t.Error("fold/advance algebra accepted a peer hop")
	}
}

// TestReverseFromCurrentMidPath reverses in flight from every position
// of the sample path and checks the shape: the current hop becomes hop
// 0, only traversed segments remain, accumulators are untouched.
func TestReverseFromCurrentMidPath(t *testing.T) {
	for pos := 0; pos < 5; pos++ {
		p := samplePath(t)
		for i := 0; i < pos; i++ {
			if err := p.IncHop(); err != nil {
				t.Fatal(err)
			}
		}
		segIDs := []uint16{p.Infos[0].SegID, p.Infos[1].SegID}
		rev, err := ReverseFromCurrent(p)
		if err != nil {
			t.Fatalf("pos %d: %v", pos, err)
		}
		if len(rev.Hops) != pos+1 {
			t.Fatalf("pos %d: reversed hops = %d, want %d", pos, len(rev.Hops), pos+1)
		}
		if rev.Hops[0] != p.Hops[pos] {
			t.Errorf("pos %d: first return hop is not the current hop", pos)
		}
		if rev.CurrHF != 0 || rev.CurrINF != 0 {
			t.Errorf("pos %d: pointers = INF%d HF%d", pos, rev.CurrINF, rev.CurrHF)
		}
		if err := rev.Validate(); err != nil {
			t.Errorf("pos %d: invalid reversal: %v", pos, err)
		}
		// Accumulators preserved (segment order may swap).
		for _, inf := range rev.Infos {
			if inf.SegID != segIDs[0] && inf.SegID != segIDs[1] {
				t.Errorf("pos %d: accumulator changed: %#x", pos, inf.SegID)
			}
		}
		// ConsDir flipped relative to the source segment.
		srcINF := 0
		if pos >= 2 {
			srcINF = 1
		}
		if rev.Infos[0].ConsDir == p.Infos[srcINF].ConsDir {
			t.Errorf("pos %d: ConsDir not flipped", pos)
		}
	}
}

// TestReverseFromCurrentPreservesPeerFlag: peer segments stay
// peer-flagged on the return path.
func TestReverseFromCurrentPeerFlag(t *testing.T) {
	p := samplePath(t)
	p.Infos[0].Peer = true
	p.Infos[1].Peer = true
	if err := p.IncHop(); err != nil { // into hop 1, still segment 0
		t.Fatal(err)
	}
	rev, err := ReverseFromCurrent(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, inf := range rev.Infos {
		if !inf.Peer {
			t.Errorf("info %d lost the Peer flag", i)
		}
	}
}

// TestReverseFromCurrentEmpty covers the empty-path short-circuit.
func TestReverseFromCurrentEmpty(t *testing.T) {
	rev, err := ReverseFromCurrent(&Path{})
	if err != nil {
		t.Fatal(err)
	}
	if !rev.IsEmpty() {
		t.Error("reversal of empty path not empty")
	}
}

// TestCurrentAccessorErrors covers out-of-range pointer handling.
func TestCurrentAccessorErrors(t *testing.T) {
	p := samplePath(t)
	if _, err := p.CurrentInfo(); err != nil {
		t.Errorf("CurrentInfo at start: %v", err)
	}
	if _, err := p.CurrentHop(); err != nil {
		t.Errorf("CurrentHop at start: %v", err)
	}
	p.CurrHF = 99
	if _, err := p.CurrentHop(); err == nil {
		t.Error("CurrentHop out of range succeeded")
	}
	p.CurrINF = 99
	if _, err := p.CurrentInfo(); err == nil {
		t.Error("CurrentInfo out of range succeeded")
	}
}

// TestReverseFromCurrentIntoReuses: one Path reused for reply after
// reply — from every position, longest first so stale hops would show,
// then from an empty path — holds what a fresh ReverseFromCurrent
// returns, leaves the source untouched, and allocates nothing once its
// slices have grown.
func TestReverseFromCurrentIntoReuses(t *testing.T) {
	var reply Path
	for pos := 4; pos >= 0; pos-- {
		p := samplePath(t)
		for i := 0; i < pos; i++ {
			if err := p.IncHop(); err != nil {
				t.Fatal(err)
			}
		}
		before := p.Copy()
		want, err := ReverseFromCurrent(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := ReverseFromCurrentInto(&reply, p); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&reply, want) {
			t.Errorf("pos %d: reused path %+v, fresh %+v", pos, reply, want)
		}
		if !reflect.DeepEqual(p, before) {
			t.Errorf("pos %d: source path modified", pos)
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = ReverseFromCurrentInto(&reply, p) }); allocs != 0 {
			t.Errorf("pos %d: %.0f allocations into a warm path", pos, allocs)
		}
	}
	if err := ReverseFromCurrentInto(&reply, &Path{}); err != nil || !reply.IsEmpty() || reply.Validate() != nil {
		t.Errorf("empty source: err %v, reply %+v", err, reply)
	}
}
