package dns

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestQuestionRoundTrip(t *testing.T) {
	m := &Message{
		ID: 42,
		Questions: []Question{
			{Name: "_sciondiscovery._tcp.example.org", Type: TypeSRV, Class: ClassIN},
		},
	}
	got := roundTrip(t, m)
	if got.ID != 42 || got.Response {
		t.Errorf("header = %+v", got)
	}
	if !reflect.DeepEqual(got.Questions, m.Questions) {
		t.Errorf("questions = %+v", got.Questions)
	}
}

func TestRecordRoundTrips(t *testing.T) {
	records := []Record{
		{Name: "bs.example.org", Type: TypeA, Class: ClassIN, TTL: 300,
			A: netip.MustParseAddr("10.0.0.7")},
		{Name: "bs6.example.org", Type: TypeAAAA, Class: ClassIN, TTL: 300,
			A: netip.MustParseAddr("fd00::7")},
		{Name: "_sciondiscovery._tcp.example.org", Type: TypePTR, Class: ClassIN, TTL: 60,
			PTR: "bootstrap._sciondiscovery._tcp.example.org"},
		{Name: "meta.example.org", Type: TypeTXT, Class: ClassIN, TTL: 60,
			TXT: []string{"isd-as=71-2:0:5c", "v=1"}},
		{Name: "_sciondiscovery._tcp.example.org", Type: TypeSRV, Class: ClassIN, TTL: 60,
			SRV: SRV{Priority: 1, Weight: 2, Port: 8041, Target: "bs.example.org"}},
		{Name: "example.org", Type: TypeNAPTR, Class: ClassIN, TTL: 60,
			NAPTR: NAPTR{Order: 10, Preference: 20, Flags: "A", Service: "x-sciondiscovery:tcp",
				Regexp: "", Replacement: "bs.example.org"}},
	}
	m := &Message{ID: 7, Response: true, Answers: records}
	got := roundTrip(t, m)
	if !got.Response {
		t.Error("response flag lost")
	}
	if len(got.Answers) != len(records) {
		t.Fatalf("answers = %d", len(got.Answers))
	}
	for i := range records {
		if !reflect.DeepEqual(got.Answers[i], records[i]) {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got.Answers[i], records[i])
		}
	}
}

func TestRootNameRoundTrip(t *testing.T) {
	m := &Message{Questions: []Question{{Name: "", Type: TypeA, Class: ClassIN}}}
	got := roundTrip(t, m)
	if got.Questions[0].Name != "" {
		t.Errorf("root name = %q", got.Questions[0].Name)
	}
}

func TestTrailingDotNormalized(t *testing.T) {
	m := &Message{Questions: []Question{{Name: "a.b.", Type: TypeA, Class: ClassIN}}}
	got := roundTrip(t, m)
	if got.Questions[0].Name != "a.b" {
		t.Errorf("name = %q", got.Questions[0].Name)
	}
}

func TestEncodeValidation(t *testing.T) {
	longLabel := make([]byte, 70)
	for i := range longLabel {
		longLabel[i] = 'a'
	}
	bad := []*Message{
		{Questions: []Question{{Name: string(longLabel), Type: TypeA}}},
		{Questions: []Question{{Name: "a..b", Type: TypeA}}},
		{Answers: []Record{{Name: "x", Type: TypeA}}},       // A without address
		{Answers: []Record{{Name: "x", Type: uint16(999)}}}, // unknown type
	}
	for i, m := range bad {
		if _, err := m.Encode(); err == nil {
			t.Errorf("case %d: bad message encoded", i)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		append(make([]byte, 12), 0xc0, 0x0c), // compressed pointer... but count=0 so ignored
	}
	// First two must fail outright.
	for i, b := range cases[:2] {
		if _, err := Decode(b); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// A message claiming one question but providing none.
	hdr := make([]byte, 12)
	hdr[5] = 1
	if _, err := Decode(hdr); err == nil {
		t.Error("truncated question accepted")
	}
	// Compressed name in a question.
	msg := make([]byte, 12)
	msg[5] = 1
	msg = append(msg, 0xc0, 0x0c, 0, 1, 0, 1)
	if _, err := Decode(msg); err == nil {
		t.Error("compressed name accepted")
	}
}

func TestFuzzDecodeNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FuzzDNSDecode: hostile bytes never panic Decode, and a message that
// decodes re-encodes — unless it holds what the codec does not emit (an
// unknown record type, an empty label or one over 63 bytes) — to bytes
// that decode again and re-encode to themselves.
func FuzzDNSDecode(f *testing.F) {
	for _, m := range []*Message{
		{ID: 42, Questions: []Question{{Name: "_sciondiscovery._tcp.example.org", Type: TypeSRV, Class: ClassIN}}},
		{ID: 7, Response: true, Answers: []Record{
			{Name: "bs.example.org", Type: TypeA, Class: ClassIN, TTL: 300, A: netip.MustParseAddr("10.0.0.7")},
			{Name: "meta.example.org", Type: TypeTXT, Class: ClassIN, TTL: 60, TXT: []string{"isd-as=71-2:0:5c", ""}},
			{Name: "_sciondiscovery._tcp.example.org", Type: TypeSRV, Class: ClassIN, TTL: 60,
				SRV: SRV{Priority: 1, Weight: 2, Port: 8041, Target: "bs.example.org"}},
			{Name: "example.org", Type: TypeNAPTR, Class: ClassIN, TTL: 60,
				NAPTR: NAPTR{Order: 10, Preference: 20, Flags: "A", Service: "x-sciondiscovery:tcp", Replacement: "bs.example.org"}},
		}},
	} {
		b, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return
		}
		enc, err := m.Encode()
		if err != nil {
			return
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("%+v re-encodes to bytes that do not decode: %v", m, err)
		}
		if enc2, err := again.Encode(); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("%+v re-encodes to %x, then to %x (%v)", m, enc, enc2, err)
		}
	})
}
