package experiments

import (
	"path/filepath"
	"strings"
	"testing"

	"sciera/internal/telemetry"
)

// TestTelemetryDumpAndReport closes the observability loop: a campaign
// run dumps its snapshot as JSON (the -telemetry flag), LoadTelemetry
// reads it back, and TelemetryReport digests it — with counters from
// every instrumented subsystem present and consistent.
func TestTelemetryDumpAndReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.json")
	ds, n, err := RunCampaign(Config{Seed: 7, Quick: true, TelemetryPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	snap, err := LoadTelemetry(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Metrics) == 0 {
		t.Fatal("snapshot has no metrics")
	}
	if fwd := snap.Total("sciera_router_forwarded_total"); fwd == 0 {
		t.Error("no forwarded packets in the dump")
	}
	if probes := snap.Total("sciera_multiping_probes_total"); probes != float64(ds.Probes) {
		t.Errorf("telemetry probes %v, dataset says %d", probes, ds.Probes)
	}
	if h, ok := snap.Histogram("sciera_multiping_rtt_ms"); !ok || h.Count == 0 {
		t.Error("no multiping RTT histogram in the dump")
	}
	if len(snap.Trace) == 0 {
		t.Error("no trace entries in the dump")
	}
	// Conservation per router over the whole campaign, incidents
	// included: whatever a router took in or originated ended in exactly
	// one outcome counter.
	for _, as := range n.Topo.ASes() {
		r, ok := n.Router(as.IA)
		if !ok {
			t.Fatalf("no router for %v", as.IA)
		}
		m := r.Metrics()
		in := m.Received.Load() + m.SCMPSent.Load()
		out := m.Forwarded.Load() + m.Delivered.Load() + m.Answered.Load() +
			m.MACFailures.Load() + m.IngressDrops.Load() + m.NoRouteDrops.Load() +
			m.LinkDownDrops.Load() + m.ParseFailures.Load()
		if in != out {
			t.Errorf("router %v: %d packets in, %d accounted for", as.IA, in, out)
		}
	}

	var b strings.Builder
	TelemetryReport(&b, snap)
	out := b.String()
	// The campaign pings via the SCMP pinger (no end-host daemons), so
	// the daemon rows are legitimately absent here; cmd/sciera's
	// -metrics-addr path and the shttp metrics test cover them.
	for _, want := range []string{
		"router", "beacon", "simnet", "multiping",
		"multiping RTT", "packet trace ring",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestTelemetryReportMergesSnapshots checks that per-node snapshots
// pool: a report over two copies of a snapshot shows doubled counters.
func TestTelemetryReportMergesSnapshots(t *testing.T) {
	snap := telemetry.Snapshot{Metrics: []telemetry.MetricSnapshot{
		{Name: "sciera_router_forwarded_total", Kind: "counter", Value: 21},
	}}
	var one, two strings.Builder
	TelemetryReport(&one, snap)
	TelemetryReport(&two, snap, snap)
	if !strings.Contains(one.String(), "21") || !strings.Contains(two.String(), "42") {
		t.Errorf("pooling failed:\none snapshot:\n%s\ntwo snapshots:\n%s", one.String(), two.String())
	}
}
