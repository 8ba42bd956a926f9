package spath

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// decodeOracle is the field-by-field decode DecodeFromBytes ran before
// View: every info and hop field, then Validate. A non-empty buffer
// with no segment, which Validate passes as the empty path, is refused
// (ErrNoSegments) as View refuses it.
func decodeOracle(b []byte) (Path, error) {
	var p Path
	if len(b) == 0 {
		return p, nil
	}
	if len(b) < MetaLen {
		return p, ErrPathTooShort
	}
	meta := binary.BigEndian.Uint32(b)
	p.CurrINF, p.CurrHF = uint8(meta>>30&0x3), uint8(meta>>24&0x3f)
	p.SegLens = [3]uint8{uint8(meta >> 12 & 0x3f), uint8(meta >> 6 & 0x3f), uint8(meta & 0x3f)}
	segs, hops := 0, 0
	for _, l := range p.SegLens {
		if l > 0 {
			segs++
			hops += int(l)
		}
	}
	if len(b) != MetaLen+segs*InfoLen+hops*HopLen {
		return p, ErrMalformedPath
	}
	if segs == 0 {
		return p, ErrNoSegments
	}
	off := MetaLen
	for i := 0; i < segs; i++ {
		var inf InfoField
		inf.decode(b[off:])
		p.Infos = append(p.Infos, inf)
		off += InfoLen
	}
	for i := 0; i < hops; i++ {
		var h HopField
		h.decode(b[off:])
		p.Hops = append(p.Hops, h)
		off += HopLen
	}
	return p, p.Validate()
}

// PatchTo re-encodes only the mutable-in-flight parts of the path —
// the meta word (CurrINF/CurrHF) and the info fields (whose SegID
// accumulators routers advance hop by hop) — into b, which must hold a
// previously serialized copy of this same path. The hop fields, which
// forwarding never mutates, are left untouched. It is how the router
// patched a decoded packet before View, and the oracle for View.Patch.
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

// FuzzPathView holds the router's path view to the decoded path. View
// accepts exactly the buffers the full decode accepts (and
// DecodeFromBytes, built on View, too). On an accepted path, walked
// hop by hop to the last hop with an accumulator moved in flight at
// every hop, the view's pointers, current info and hop field and
// segment-boundary predicates equal the decoded path's; Patch writes
// into the viewed bytes what Path.PatchTo writes into a copy — canonical
// info flags and a zero RSV byte included — and Decode yields the
// decoded path.
func FuzzPathView(f *testing.F) {
	p := samplePath(&testing.T{})
	raw := make([]byte, p.Len())
	if err := p.SerializeTo(raw); err != nil {
		f.Fatal(err)
	}
	dirty := bytes.Clone(raw)
	dirty[1] |= 0xfc // meta RSV bits
	dirty[MetaLen] |= 0xfc
	dirty[MetaLen+InfoLen+1] = 0xab
	f.Add(raw, uint16(0))
	f.Add(dirty, uint16(0x1234))
	f.Add(raw[:MetaLen], uint16(0))
	f.Add([]byte{}, uint16(0))

	f.Fuzz(func(t *testing.T, raw []byte, flip uint16) {
		var v View
		patched := bytes.Clone(raw)
		errView := v.Init(patched)
		want, errOracle := decodeOracle(raw)
		var got Path
		errDecode := got.DecodeFromBytes(raw)
		if (errView == nil) != (errOracle == nil) || (errDecode == nil) != (errOracle == nil) {
			t.Fatalf("View.Init err = %v, DecodeFromBytes err = %v, oracle err = %v", errView, errDecode, errOracle)
		}
		if errView != nil {
			return
		}
		if v.IsEmpty() != want.IsEmpty() {
			t.Fatalf("IsEmpty = %v, want %v", v.IsEmpty(), want.IsEmpty())
		}
		for step := 0; ; step++ {
			if !want.IsEmpty() {
				if v.CurrHF() != want.CurrHF {
					t.Fatalf("step %d: hop pointer %d, want %d", step, v.CurrHF(), want.CurrHF)
				}
				info, _ := want.CurrentInfo()
				hop, _ := want.CurrentHop()
				if *v.Info() != *info || v.Hop() != *hop {
					t.Fatalf("step %d: fields %+v %+v, want %+v %+v", step, *v.Info(), v.Hop(), *info, *hop)
				}
				if v.IsLastHop() != want.IsLastHop() || v.IsFirstHopOfSegment() != want.IsFirstHopOfSegment() ||
					v.IsLastHopOfSegment() != want.IsLastHopOfSegment() {
					t.Fatalf("step %d: predicates disagree at hop %d", step, want.CurrHF)
				}
				// An accumulator moved in flight, as MAC verification does.
				v.Info().SegID ^= flip + uint16(step)
				info.SegID ^= flip + uint16(step)
			}
			// The view patches the bytes it reads, as the router does,
			// and must read on as if they were untouched.
			v.Patch()
			wantPatched := bytes.Clone(raw)
			if err := want.PatchTo(wantPatched); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(patched, wantPatched) {
				t.Fatalf("step %d: Patch wrote %x, Path.PatchTo %x", step, patched, wantPatched)
			}
			v.Decode(&got)
			if !reflect.DeepEqual(got, want) && !(got.IsEmpty() && want.IsEmpty()) {
				t.Fatalf("step %d: Decode = %v, want %v", step, &got, &want)
			}
			errV, errP := v.IncHop(), want.IncHop()
			if (errV == nil) != (errP == nil) {
				t.Fatalf("step %d: IncHop err = %v, Path.IncHop err = %v", step, errV, errP)
			}
			if errV != nil {
				return
			}
		}
	})
}
