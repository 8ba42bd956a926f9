package control

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/beacon"
	"sciera/internal/combinator"
	"sciera/internal/cppki"
	"sciera/internal/segment"
	"sciera/internal/simnet"
)

// realRequests are well-formed requests of every type. Together with
// the request and reply bytes captured from a converged SCIERA network
// (checked in under testdata/fuzz) they are the seeds the fuzzer mutates.
func realRequests(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, req := range []Request{
		{ID: 1, Type: "paths", Dst: leafIA},
		{ID: 2, Type: "paths", Dst: leafIA, Gen: 0x9e3779b97f4a7c15},
		{ID: 3, Type: "paths"},
		{ID: 4, Type: "trc", ISD: 71},
		{ID: 5, Type: "renew", CSR: []byte{0x30, 0x03, 0x02, 0x01, 0x00}},
		{ID: 6, Type: "bogus"},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzServiceHandle: whatever bytes arrive on the control service's
// socket, it never panics and sends at most one datagram back — exactly
// one, a decodable Response echoing the request ID, whenever the bytes
// parse as a Request.
func FuzzServiceHandle(f *testing.F) {
	for _, b := range realRequests(f) {
		f.Add(b)
	}
	f.Add([]byte(`{"type":"paths","dst":"71-0"}`))
	f.Add([]byte(`{"id":18446744073709551615,"type":"paths","dst":"0-0","gen":1}`))
	f.Add([]byte(`[]`))
	f.Add([]byte{0xff, 0x00})

	sim := simnet.NewSim(time.Unix(0, 0))
	p, err := cppki.ProvisionISD(71, []addr.IA{coreIA}, []addr.IA{coreIA},
		cppki.ProvisionOptions{NotBefore: sim.Now().Add(-time.Hour)})
	if err != nil {
		f.Fatal(err)
	}
	trcs := cppki.NewStore()
	if err := trcs.AddTrusted(p.TRC, sim.Now()); err != nil {
		f.Fatal(err)
	}
	reg := testRegistry(f)
	svc := startService(f, sim, leafIA, reg, trcs, nil)
	var replies [][]byte
	peer, err := sim.Listen(netip.AddrPort{}, func(raw []byte, _ netip.AddrPort) {
		replies = append(replies, append([]byte(nil), raw...))
	})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		replies = replies[:0]
		if err := peer.Send(raw, svc.Addr()); err != nil {
			t.Skip(err) // the transport refused the datagram (e.g. oversize)
		}
		sim.RunFor(time.Second)
		if len(replies) > 1 {
			t.Fatalf("%d replies to one datagram", len(replies))
		}
		var req Request
		if json.Unmarshal(raw, &req) != nil {
			if len(replies) != 0 {
				t.Fatalf("reply to bytes that are no request: %q", replies[0])
			}
			return
		}
		if len(replies) != 1 {
			t.Fatalf("no reply to a well-formed request %q", raw)
		}
		var resp Response
		if err := json.Unmarshal(replies[0], &resp); err != nil {
			t.Fatalf("undecodable reply %q: %v", replies[0], err)
		}
		if resp.ID != req.ID {
			t.Fatalf("reply ID %d to request ID %d", resp.ID, req.ID)
		}
	})
}

// realResponse is the "paths" answer the test registry produces.
func realResponse(t testing.TB) []byte {
	t.Helper()
	svc := &Service{IA: leafIA, Metrics: &Metrics{}}
	reg := testRegistry(t)
	svc.Registry = func() *beacon.Registry { return reg }
	b, err := json.Marshal(svc.serve(&Request{ID: 7, Type: "paths", Dst: leafIA}))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzDecodeSegments: the daemon's side of the same boundary. Hostile
// response bytes never panic DecodeSegments, the segment accessors, or
// the combination the daemon runs on a decoded answer, and a segment
// that decodes re-encodes to a fixed point.
func FuzzDecodeSegments(f *testing.F) {
	f.Add(realResponse(f))
	f.Add([]byte(`{"ups":[{}],"cores":[null],"downs":[{"as_entries":[]}]}`))
	f.Add([]byte(`{"ups":[{"timestamp":1,"beta0":2,"as_entries":[{"ia":"71-1","mac":[1,2,3,4,5,6],"link_latency_ms":1e308}]}]}`))
	f.Add([]byte(`{"cores":[7,"x",[]]}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var resp Response
		if json.Unmarshal(raw, &resp) != nil {
			return
		}
		var groups [3][]*segment.Segment
		for g, group := range [][]json.RawMessage{resp.Ups, resp.Cores, resp.Downs} {
			segs, err := DecodeSegments(group)
			if err != nil {
				return // the daemon fails the lookup
			}
			if len(segs) != len(group) {
				t.Fatalf("decoded %d segments from %d", len(segs), len(group))
			}
			for _, s := range segs {
				_, _, _ = s.ID(), s.Expiry(), s.BetaFinal()
				b, err := s.Encode()
				if err != nil {
					t.Fatalf("decoded segment does not re-encode: %v", err)
				}
				again, err := DecodeSegments([]json.RawMessage{b})
				if err != nil {
					t.Fatalf("re-encoded segment does not decode: %v", err)
				}
				if b2, _ := again[0].Encode(); !bytes.Equal(b, b2) {
					t.Fatalf("encode → decode → encode is not a fixed point:\n%s\n%s", b, b2)
				}
			}
			groups[g] = segs
		}
		// What the daemon does next with a decoded answer.
		for _, dst := range []addr.IA{coreIA, leafIA, 0} {
			combinator.Combine(leafIA, dst, groups[0], groups[1], groups[2])
		}
	})
}
