package spath

import (
	"encoding/binary"
	"fmt"
)

// View reads a serialized path in place, the way a border router does:
// it validates the path from its meta word and length, decodes only the
// info field and hop field at the current pointers, advances the
// pointers and the SegID accumulators without touching the bytes, and
// patches them back in one pass (Patch). The zero View, like a View of
// an empty buffer, is the empty path.
type View struct {
	b                []byte
	currINF, currHF  uint8
	segLens          [3]uint8
	numINF, numHF    uint8
	segStart, segEnd uint8     // hop range of the current segment
	firstINF         uint8     // current segment at Init
	segIDs           [3]uint16 // accumulators of segments firstINF..currINF-1
	info             InfoField // the current info field, accumulator in flight
}

// Init validates b as a serialized path — the meta word against the
// buffer length, contiguous segments, pointers inside the path and the
// hop pointer inside the current segment — and points the view at it.
// These are the rules DecodeFromBytes applies. While the view is in
// use, b changes only through Patch.
func (v *View) Init(b []byte) error {
	*v = View{b: b}
	if len(b) == 0 {
		return nil
	}
	if len(b) < MetaLen {
		return ErrPathTooShort
	}
	meta := binary.BigEndian.Uint32(b)
	v.currINF, v.currHF = uint8(meta>>30), uint8(meta>>24&0x3f)
	v.segLens = [3]uint8{uint8(meta >> 12 & 0x3f), uint8(meta >> 6 & 0x3f), uint8(meta & 0x3f)}
	segs, hops := 0, 0
	for i, l := range v.segLens {
		if l > 0 && segs != i {
			return fmt.Errorf("%w: non-contiguous segment lengths", ErrMalformedPath)
		}
		if l > 0 {
			segs++
			hops += int(l)
		}
	}
	if want := MetaLen + segs*InfoLen + hops*HopLen; len(b) != want {
		return fmt.Errorf("%w: have %d bytes, meta implies %d", ErrMalformedPath, len(b), want)
	}
	if segs == 0 {
		return ErrNoSegments
	}
	if int(v.currINF) >= segs {
		return fmt.Errorf("%w: CurrINF %d out of range", ErrMalformedPath, v.currINF)
	}
	v.numINF, v.numHF = uint8(segs), uint8(hops)
	v.enterSegment()
	if v.currHF < v.segStart || v.currHF >= v.segEnd {
		return fmt.Errorf("%w: CurrHF %d lies outside segment %d", ErrMalformedPath, v.currHF, v.currINF)
	}
	v.firstINF = v.currINF
	return nil
}

// enterSegment computes the current segment's hop range and decodes its
// info field.
func (v *View) enterSegment() {
	v.segStart = 0
	for _, l := range v.segLens[:v.currINF] {
		v.segStart += l
	}
	v.segEnd = v.segStart + v.segLens[v.currINF]
	v.info.decode(v.b[MetaLen+int(v.currINF)*InfoLen:])
}

// IsEmpty reports whether this is the empty (AS-local) path.
func (v *View) IsEmpty() bool { return v.numHF == 0 }

// CurrHF is the current hop field index.
func (v *View) CurrHF() uint8 { return v.currHF }

// Info is the current info field. Its SegID is the accumulator in
// flight: VerifyHopWith advances it, and Patch writes it back.
func (v *View) Info() *InfoField { return &v.info }

// Hop decodes the current hop field.
func (v *View) Hop() HopField {
	var h HopField
	h.decode(v.b[MetaLen+int(v.numINF)*InfoLen+int(v.currHF)*HopLen:])
	return h
}

// IsLastHop, IsFirstHopOfSegment and IsLastHopOfSegment are Path's
// predicates of the same names.
func (v *View) IsLastHop() bool           { return v.currHF+1 == v.numHF }
func (v *View) IsFirstHopOfSegment() bool { return v.currHF == v.segStart }
func (v *View) IsLastHopOfSegment() bool  { return v.currHF+1 == v.segEnd }

// IncHop advances to the next hop field, entering the next segment
// past the last hop of this one. It fails at the last hop.
func (v *View) IncHop() error {
	if v.currHF+1 >= v.numHF {
		return ErrPathExhausted
	}
	v.currHF++
	if v.currHF == v.segEnd {
		v.segIDs[v.currINF] = v.info.SegID
		v.currINF++
		v.enterSegment()
	}
	return nil
}

// segID returns the accumulator of segment i in the view's state.
func (v *View) segID(i int) uint16 {
	switch {
	case i == int(v.currINF):
		return v.info.SegID
	case i >= int(v.firstINF) && i < int(v.currINF):
		return v.segIDs[i]
	}
	return binary.BigEndian.Uint16(v.b[MetaLen+i*InfoLen+2:])
}

// Patch writes the view's state into the viewed bytes, exactly as
// Path.PatchTo writes a decoded path's: the meta word and every info
// field in canonical form. Hop fields are left alone, and the view
// reads on as before.
func (v *View) Patch() {
	if v.IsEmpty() {
		return
	}
	binary.BigEndian.PutUint32(v.b, uint32(v.currINF)<<30|uint32(v.currHF&0x3f)<<24|
		uint32(v.segLens[0])<<12|uint32(v.segLens[1])<<6|uint32(v.segLens[2]))
	for i := 0; i < int(v.numINF); i++ {
		f := v.b[MetaLen+i*InfoLen:]
		f[0] &= infoFlagConsDir | infoFlagPeer
		f[1] = 0
		binary.BigEndian.PutUint16(f[2:4], v.segID(i))
	}
}

// Decode writes the whole path in the view's state into p, reusing p's
// slices.
func (v *View) Decode(p *Path) {
	*p = Path{Infos: p.Infos[:0], Hops: p.Hops[:0]}
	if v.IsEmpty() {
		return
	}
	p.CurrINF, p.CurrHF, p.SegLens = v.currINF, v.currHF, v.segLens
	off := MetaLen
	for i := 0; i < int(v.numINF); i++ {
		var inf InfoField
		inf.decode(v.b[off:])
		inf.SegID = v.segID(i)
		p.Infos = append(p.Infos, inf)
		off += InfoLen
	}
	for i := 0; i < int(v.numHF); i++ {
		var h HopField
		h.decode(v.b[off:])
		p.Hops = append(p.Hops, h)
		off += HopLen
	}
}
