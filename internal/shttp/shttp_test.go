package shttp_test

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/core"
	"sciera/internal/pan"
	"sciera/internal/shttp"
	"sciera/internal/simnet"
	"sciera/internal/topology"
)

var (
	c1 = addr.MustParseIA("71-1")
	lA = addr.MustParseIA("71-10")
	lB = addr.MustParseIA("71-11")
)

func buildNet(t testing.TB, sim *simnet.Sim) *core.Network {
	t.Helper()
	topo := topology.New()
	if err := topo.AddAS(topology.ASInfo{IA: c1, Core: true}); err != nil {
		t.Fatal(err)
	}
	for _, ia := range []addr.IA{lA, lB} {
		if err := topo.AddAS(topology.ASInfo{IA: ia}); err != nil {
			t.Fatal(err)
		}
	}
	for _, leaf := range []addr.IA{lA, lB} {
		if _, err := topo.AddLink(topology.LinkEnd{IA: c1}, topology.LinkEnd{IA: leaf}, topology.LinkParent, 5, ""); err != nil {
			t.Fatal(err)
		}
	}
	n, err := core.Build(topo, sim, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func setup(t *testing.T) (*pan.Host, *pan.Host, func()) {
	t.Helper()
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n := buildNet(t, sim)
	dA, err := n.NewDaemon(lA)
	if err != nil {
		t.Fatal(err)
	}
	dB, err := n.NewDaemon(lB)
	if err != nil {
		t.Fatal(err)
	}
	return pan.WithDaemon(sim, dA), pan.WithDaemon(sim, dB), func() { n.Close() }
}

func TestGETAcrossASes(t *testing.T) {
	hA, hB, cleanup := setup(t)
	defer cleanup()

	mux := http.NewServeMux()
	mux.HandleFunc("/hello", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "hello from %s", lB)
	})
	srv, err := shttp.Serve(hB, 443, mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &http.Client{Transport: shttp.NewTransport(hA, nil)}
	url := "http://" + shttp.MangleSCIONAddrURL(srv.Addr().String()) + "/hello"
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if string(body) != "hello from "+lB.String() {
		t.Errorf("body = %q", body)
	}
}

func TestPOSTWithBodyAndStatus(t *testing.T) {
	hA, hB, cleanup := setup(t)
	defer cleanup()

	mux := http.NewServeMux()
	mux.HandleFunc("/upload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "nope", http.StatusMethodNotAllowed)
			return
		}
		b, _ := io.ReadAll(r.Body)
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, "got %d bytes", len(b))
	})
	srv, err := shttp.Serve(hB, 0, mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &http.Client{Transport: shttp.NewTransport(hA, pan.Fastest{})}
	payload := strings.Repeat("x", 40_000) // forces fragmentation
	resp, err := client.Post("http://"+shttp.MangleSCIONAddrURL(srv.Addr().String())+"/upload",
		"text/plain", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "got 40000 bytes" {
		t.Errorf("body = %q", body)
	}
}

func TestNotFoundAndRemoteAddr(t *testing.T) {
	hA, hB, cleanup := setup(t)
	defer cleanup()

	var remote string
	mux := http.NewServeMux()
	mux.HandleFunc("/whoami", func(w http.ResponseWriter, r *http.Request) {
		remote = r.RemoteAddr
	})
	srv, err := shttp.Serve(hB, 0, mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &http.Client{Transport: shttp.NewTransport(hA, nil)}
	base := "http://" + shttp.MangleSCIONAddrURL(srv.Addr().String())
	resp, err := client.Get(base + "/whoami")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.HasPrefix(remote, lA.String()+",") {
		t.Errorf("RemoteAddr = %q", remote)
	}
	resp, err = client.Get(base + "/missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestParseSCIONHost(t *testing.T) {
	want := addr.MustParseUDPAddr("71-2:0:3b,10.0.0.7:8080")
	cases := []string{
		"71-2:0:3b,10.0.0.7:8080",
		"71-2_0_3b__10.0.0.7_8080",
	}
	for _, c := range cases {
		got, err := shttp.ParseSCIONHost(c)
		if err != nil || got != want {
			t.Errorf("ParseSCIONHost(%q) = %v, %v", c, got, err)
		}
	}
	for _, bad := range []string{"example.com:80", "71-10__noport", ""} {
		if _, err := shttp.ParseSCIONHost(bad); err == nil {
			t.Errorf("ParseSCIONHost(%q) accepted", bad)
		}
	}
}

func TestMangleSCIONAddrURL(t *testing.T) {
	in := "http://71-2:0:3b,10.0.0.7:8080/path?q=1"
	out := shttp.MangleSCIONAddrURL(in)
	if strings.Contains(out, ",") {
		t.Errorf("mangled URL still has a comma: %q", out)
	}
	if !strings.HasSuffix(out, "/path?q=1") {
		t.Errorf("path lost: %q", out)
	}
	// Non-SCION URLs pass through.
	plain := "http://example.com/x"
	if shttp.MangleSCIONAddrURL(plain) != plain {
		t.Error("plain URL modified")
	}
	if shttp.MangleSCIONAddrURL("nourl") != "nourl" {
		t.Error("non-URL modified")
	}
}

func TestRoundTripRejectsNonSCIONHost(t *testing.T) {
	hA, _, cleanup := setup(t)
	defer cleanup()
	client := &http.Client{Transport: shttp.NewTransport(hA, nil)}
	if _, err := client.Get("http://example.com/"); err == nil {
		t.Error("non-SCION host accepted")
	}
}
