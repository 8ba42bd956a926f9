package lightningfilter

import (
	"net/netip"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/scrypto"
	"sciera/internal/slayers"
)

var (
	localIA = addr.MustParseIA("71-2:0:5c")
	srcIA   = addr.MustParseIA("71-225")
	master  = []byte("ufms-drkey-master-secret")
)

func fixedNow() time.Time { return time.Unix(1_700_000_000, 0) }

func newFilter(t *testing.T, rate float64, isds []addr.ISD) *Filter {
	t.Helper()
	f, err := New(Config{
		Local:       localIA,
		Master:      master,
		RatePPS:     rate,
		AllowedISDs: isds,
		Now:         fixedNow,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func sealedPacket(t *testing.T, src addr.IA, at time.Time, payload []byte) *slayers.Packet {
	t.Helper()
	body, err := Seal(master, at, 3*time.Hour, src, payload)
	if err != nil {
		t.Fatal(err)
	}
	return &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA:   localIA,
			SrcIA:   src,
			DstHost: netip.MustParseAddr("10.0.0.2"),
			SrcHost: netip.MustParseAddr("10.0.0.1"),
		},
		UDP:     &slayers.UDP{SrcPort: 1, DstPort: 2},
		Payload: body,
	}
}

func TestAuthenticatedPacketPasses(t *testing.T) {
	f := newFilter(t, 0, nil)
	pkt := sealedPacket(t, srcIA, fixedNow(), []byte("science data"))
	if v := f.Check(pkt); v != Pass {
		t.Fatalf("verdict = %v", v)
	}
	if f.Metrics().Passed.Load() != 1 {
		t.Error("metrics not counted")
	}
	// Raw pipeline too.
	raw, err := pkt.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := f.CheckRaw(raw); v != Pass {
		t.Fatalf("raw verdict = %v", v)
	}
	if f.CheckRaw([]byte("garbage")) != DropUnparseable {
		t.Error("garbage passed")
	}
}

func TestTamperingDropped(t *testing.T) {
	f := newFilter(t, 0, nil)

	// Tampered payload.
	pkt := sealedPacket(t, srcIA, fixedNow(), []byte("science data"))
	pkt.Payload[len(pkt.Payload)-1] ^= 1
	if v := f.Check(pkt); v != DropUnauthenticated {
		t.Errorf("tampered payload verdict = %v", v)
	}

	// Spoofed source AS (MAC no longer matches the derived key).
	pkt2 := sealedPacket(t, srcIA, fixedNow(), []byte("x"))
	pkt2.Hdr.SrcIA = addr.MustParseIA("71-88")
	if v := f.Check(pkt2); v != DropUnauthenticated {
		t.Errorf("spoofed source verdict = %v", v)
	}

	// No auth header at all.
	pkt3 := sealedPacket(t, srcIA, fixedNow(), nil)
	pkt3.Payload = []byte{1}
	if v := f.Check(pkt3); v != DropUnauthenticated {
		t.Errorf("unauthenticated verdict = %v", v)
	}
}

// TestMACByteFlipDropped: a packet whose MAC differs from the derived
// one in any single byte is unauthenticated.
func TestMACByteFlipDropped(t *testing.T) {
	f := newFilter(t, 0, nil)
	for i := 0; i < scrypto.HopMACLen; i++ {
		pkt := sealedPacket(t, srcIA, fixedNow(), []byte("science data"))
		pkt.Payload[8+i] ^= 0x80
		if v := f.Check(pkt); v != DropUnauthenticated {
			t.Errorf("MAC byte %d flipped: verdict = %v", i, v)
		}
	}
}

func TestReplayWindow(t *testing.T) {
	f := newFilter(t, 0, nil)
	stale := sealedPacket(t, srcIA, fixedNow().Add(-10*time.Second), []byte("old"))
	if v := f.Check(stale); v != DropExpired {
		t.Errorf("stale verdict = %v", v)
	}
	future := sealedPacket(t, srcIA, fixedNow().Add(10*time.Second), []byte("future"))
	if v := f.Check(future); v != DropExpired {
		t.Errorf("future verdict = %v", v)
	}
}

func TestRateLimiting(t *testing.T) {
	f := newFilter(t, 10, nil) // 10 pps, burst 20
	passed, limited := 0, 0
	for i := 0; i < 50; i++ {
		pkt := sealedPacket(t, srcIA, fixedNow(), []byte{byte(i)})
		switch f.Check(pkt) {
		case Pass:
			passed++
		case DropRateLimited:
			limited++
		default:
			t.Fatal("unexpected verdict")
		}
	}
	if passed != 20 || limited != 30 {
		t.Errorf("passed=%d limited=%d, want 20/30 (burst = 2x rate)", passed, limited)
	}
	// A different source AS has its own bucket.
	other := sealedPacket(t, addr.MustParseIA("71-20965"), fixedNow(), []byte("y"))
	if v := f.Check(other); v != Pass {
		t.Errorf("other source rate-limited: %v", v)
	}
}

func TestGeofencing(t *testing.T) {
	f := newFilter(t, 0, []addr.ISD{71})
	ok := sealedPacket(t, srcIA, fixedNow(), []byte("x"))
	if v := f.Check(ok); v != Pass {
		t.Errorf("same-ISD verdict = %v", v)
	}
	// A foreign-ISD source is dropped by policy before crypto.
	foreign := sealedPacket(t, srcIA, fixedNow(), []byte("x"))
	foreign.Hdr.SrcIA = addr.MustParseIA("64-559")
	if v := f.Check(foreign); v != DropPolicy {
		t.Errorf("foreign ISD verdict = %v", v)
	}
	// Wrong destination.
	wrongDst := sealedPacket(t, srcIA, fixedNow(), []byte("x"))
	wrongDst.Hdr.DstIA = addr.MustParseIA("71-88")
	if v := f.Check(wrongDst); v != DropPolicy {
		t.Errorf("wrong destination verdict = %v", v)
	}
}

func TestEpochRotation(t *testing.T) {
	now := fixedNow()
	f, err := New(Config{Local: localIA, Master: master, EpochLen: time.Hour, Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	body, err := Seal(master, now, time.Hour, srcIA, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	pkt := sealedPacket(t, srcIA, now, []byte("x"))
	pkt.Payload = body
	if v := f.Check(pkt); v != Pass {
		t.Fatalf("verdict = %v", v)
	}
	// Two hours later a packet sealed with the new epoch key passes;
	// one sealed with the old key fails.
	now = now.Add(2 * time.Hour)
	fresh, err := Seal(master, now, time.Hour, srcIA, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	pkt.Payload = fresh
	if v := f.Check(pkt); v != Pass {
		t.Errorf("new-epoch verdict = %v", v)
	}
	oldKeyBody, err := Seal(master, now.Add(-2*time.Hour), time.Hour, srcIA, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	// Fix up the timestamp to be current but keep the old-epoch MAC.
	h, payload, _ := DecodeAuth(oldKeyBody)
	h.TSNanos = uint64(now.UnixNano())
	pkt.Payload = EncodeAuth(h, payload)
	if v := f.Check(pkt); v != DropUnauthenticated {
		t.Errorf("old-epoch key verdict = %v", v)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Master: master}); err == nil {
		t.Error("filter without Local accepted")
	}
	if _, err := New(Config{Local: localIA, Now: fixedNow}); err == nil {
		t.Error("filter without master accepted")
	}
	if _, err := New(Config{Local: localIA, Master: master}); err == nil {
		t.Error("filter without a clock accepted")
	}
}

func TestNaiveFilter(t *testing.T) {
	n := &NaiveFilter{Local: localIA, Allowed: map[addr.IA]bool{srcIA: true}}
	pkt := sealedPacket(t, srcIA, fixedNow(), []byte("x"))
	if n.Check(pkt) != Pass {
		t.Error("allowed source dropped")
	}
	pkt.Hdr.SrcIA = addr.MustParseIA("71-88")
	if n.Check(pkt) != DropPolicy {
		t.Error("unlisted source passed")
	}
	// But the naive filter cannot detect spoofing of an allowed source:
	spoofed := sealedPacket(t, addr.MustParseIA("71-88"), fixedNow(), []byte("evil"))
	spoofed.Hdr.SrcIA = srcIA // attacker writes the allowed address
	if n.Check(spoofed) != Pass {
		t.Error("naive filter unexpectedly caught spoofing")
	}
	// ... while LightningFilter does.
	f := newFilter(t, 0, nil)
	if f.Check(spoofed) != DropUnauthenticated {
		t.Error("lightningfilter missed spoofing")
	}
}

func TestVerdictStrings(t *testing.T) {
	for v := Pass; v <= DropPolicy; v++ {
		if v.String() == "" {
			t.Errorf("verdict %d unnamed", v)
		}
	}
	if Verdict(99).String() == "" {
		t.Error("unknown verdict should format")
	}
}

func BenchmarkLightningFilterCheck(b *testing.B) {
	f, err := New(Config{Local: localIA, Master: master, Now: fixedNow})
	if err != nil {
		b.Fatal(err)
	}
	body, err := Seal(master, fixedNow(), 3*time.Hour, srcIA, make([]byte, 1000))
	if err != nil {
		b.Fatal(err)
	}
	pkt := &slayers.Packet{
		Hdr: slayers.SCION{
			DstIA: localIA, SrcIA: srcIA,
			DstHost: netip.MustParseAddr("10.0.0.2"),
			SrcHost: netip.MustParseAddr("10.0.0.1"),
		},
		UDP:     &slayers.UDP{SrcPort: 1, DstPort: 2},
		Payload: body,
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.Check(pkt) != Pass {
			b.Fatal("drop")
		}
	}
}

func BenchmarkNaiveFilterCheck(b *testing.B) {
	n := &NaiveFilter{Local: localIA, Allowed: map[addr.IA]bool{srcIA: true}}
	pkt := &slayers.Packet{
		Hdr:     slayers.SCION{DstIA: localIA, SrcIA: srcIA},
		UDP:     &slayers.UDP{},
		Payload: make([]byte, 1000),
	}
	b.SetBytes(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if n.Check(pkt) != Pass {
			b.Fatal("drop")
		}
	}
}
