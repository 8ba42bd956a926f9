package shttp_test

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"sciera/internal/pan"
	"sciera/internal/shttp"
	"sciera/internal/simnet"
)

// TestMetricsOverSCION serves the network's telemetry registry through
// shttp and scrapes it from another AS — Prometheus-text exposition
// carried over the SCION data plane itself, so an operator can monitor
// an AS without out-of-band connectivity.
func TestMetricsOverSCION(t *testing.T) {
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n := buildNet(t, sim)
	defer n.Close()

	dA, err := n.NewDaemon(lA)
	if err != nil {
		t.Fatal(err)
	}
	dB, err := n.NewDaemon(lB)
	if err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	mux.Handle("/metrics", n.Telemetry().Handler())
	srv, err := shttp.Serve(pan.WithDaemon(sim, dB), 9090, mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &http.Client{Transport: shttp.NewTransport(pan.WithDaemon(sim, dA), nil)}
	resp, err := client.Get("http://" + shttp.MangleSCIONAddrURL(srv.Addr().String()) + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	// The scrape crossed the data plane, so the router counters it
	// reports include the packets that carried the scrape itself.
	for _, family := range []string{
		"sciera_router_forwarded_total",
		"sciera_beacon_originated_total",
		"sciera_daemon_lookups_total",
		"sciera_simnet_delivered_total",
	} {
		if !strings.Contains(text, "# TYPE "+family+" counter") {
			t.Errorf("exposition missing family %s", family)
		}
	}
}
