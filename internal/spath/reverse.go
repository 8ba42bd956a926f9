package spath

// ReverseFromCurrent builds the return path from a packet in flight:
// the path is truncated at the current hop (everything beyond it has not
// been traversed) and reversed, with the current hop becoming the first
// hop of the return path.
//
// Crucially, the info-field accumulators are kept exactly as they are in
// the packet: routers advanced them hop by hop on the way here, which
// leaves each traversed segment's accumulator at precisely the value the
// opposite-direction traversal needs (the XOR algebra is an involution).
// This is how SCMP error messages and request/response servers route
// back to the source without any path lookup. The caller must have
// processed (VerifyHop) the current hop before reversing.
func ReverseFromCurrent(p *Path) (*Path, error) {
	t := &Path{}
	if err := ReverseFromCurrentInto(t, p); err != nil {
		return nil, err
	}
	return t, nil
}

// ReverseFromCurrentInto is ReverseFromCurrent writing the return path
// into t, whose slices are reused: an endpoint that answers packet after
// packet keeps one Path for its replies. t must not alias p.
func ReverseFromCurrentInto(t, p *Path) error {
	*t = Path{Infos: t.Infos[:0], Hops: t.Hops[:0]}
	if p.IsEmpty() {
		return nil
	}
	if err := p.Validate(); err != nil {
		return err
	}
	// Truncate: keep segments 0..CurrINF and hops 0..CurrHF.
	t.Infos = append(t.Infos, p.Infos[:p.CurrINF+1]...)
	t.Hops = append(t.Hops, p.Hops[:p.CurrHF+1]...)
	// Recompute segment lengths: full lengths for all but the last
	// segment, partial for the segment containing CurrHF.
	remaining := int(p.CurrHF) + 1
	for i := 0; i <= int(p.CurrINF); i++ {
		l := int(p.SegLens[i])
		if l > remaining {
			l = remaining
		}
		t.SegLens[i] = uint8(l)
		remaining -= l
	}
	t.CurrINF = p.CurrINF
	t.CurrHF = p.CurrHF
	if err := t.Validate(); err != nil {
		return err
	}
	return t.Reverse()
}
