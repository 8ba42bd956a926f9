package orchestrator_test

import (
	"crypto/x509"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/ca"
	"sciera/internal/core"
	"sciera/internal/cppki"
	"sciera/internal/orchestrator"
	"sciera/internal/simnet"
	"sciera/internal/topology"
)

var (
	c1   = addr.MustParseIA("71-1")
	c2   = addr.MustParseIA("71-2")
	lA   = addr.MustParseIA("71-10")
	newA = addr.MustParseIA("71-99")
)

func buildNet(t testing.TB, sim *simnet.Sim) *core.Network {
	t.Helper()
	topo := topology.New()
	for _, ia := range []addr.IA{c1, c2} {
		if err := topo.AddAS(topology.ASInfo{IA: ia, Core: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := topo.AddAS(topology.ASInfo{IA: lA}); err != nil {
		t.Fatal(err)
	}
	link := func(a, b addr.IA, typ topology.LinkType, lat float64) {
		if _, err := topo.AddLink(topology.LinkEnd{IA: a}, topology.LinkEnd{IA: b}, typ, lat, ""); err != nil {
			t.Fatal(err)
		}
	}
	link(c1, c2, topology.LinkCore, 20)
	link(c1, lA, topology.LinkParent, 5)
	n, err := core.Build(topo, sim, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestProvisionNewAS(t *testing.T) {
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n := buildNet(t, sim)
	defer n.Close()
	o := orchestrator.New(n)

	cfg, err := orchestrator.ParseASConfig([]byte(`{
		"ia": "71-99",
		"name": "New University",
		"lat": 48.1, "lon": 11.6,
		"uplinks": [
			{"parent": "71-1", "latency_ms": 4, "name": "NREN VLAN 1"},
			{"parent": "71-2", "latency_ms": 6, "name": "NREN VLAN 2"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Provision(cfg); err != nil {
		t.Fatal(err)
	}
	// The new AS is reachable from the existing leaf, over multiple
	// paths (it is dual-homed).
	paths := n.Paths(lA, newA)
	if len(paths) < 2 {
		t.Fatalf("paths to provisioned AS = %d, want >= 2", len(paths))
	}
	if len(o.Events()) < 3 {
		t.Errorf("provisioning produced %d log events", len(o.Events()))
	}

	// Bad configs rejected.
	for _, bad := range []string{
		`{`,
		`{"name":"x","uplinks":[{"parent":"71-1"}]}`,
		`{"ia":"71-98","uplinks":[]}`,
	} {
		if _, err := orchestrator.ParseASConfig([]byte(bad)); err == nil {
			t.Errorf("bad config accepted: %s", bad)
		}
	}
	// Unknown parent fails.
	cfg2, _ := orchestrator.ParseASConfig([]byte(`{"ia":"71-98","uplinks":[{"parent":"71-77","latency_ms":1}]}`))
	if err := o.Provision(cfg2); err == nil {
		t.Error("provisioning with unknown parent succeeded")
	}
}

func TestMonitoringAlertsOnOutage(t *testing.T) {
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n := buildNet(t, sim)
	defer n.Close()
	o := orchestrator.New(n)
	var emails []orchestrator.Alert
	o.AlertFunc = func(a orchestrator.Alert) { emails = append(emails, a) }

	if err := o.StartMonitoring(c1, time.Minute); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(3 * time.Minute)
	if len(o.Alerts()) != 0 {
		t.Fatalf("alerts on healthy network: %+v", o.Alerts())
	}

	// Cut the leaf's only link (data plane only — control plane still
	// remembers paths, so pings fail with SCMP errors).
	var leafLink int
	for _, l := range n.Topo.LinksOf(lA) {
		leafLink = l.ID
	}
	if err := n.Topo.SetLinkUp(leafLink, false); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(3 * time.Minute)
	down := o.Down()
	if len(down) != 1 || down[0] != lA {
		t.Fatalf("down = %v, want [%v]", down, lA)
	}
	// Exactly one DOWN alert despite repeated failing cycles (dedup).
	downAlerts := 0
	for _, a := range o.Alerts() {
		if a.Down {
			downAlerts++
		}
	}
	if downAlerts != 1 {
		t.Errorf("down alerts = %d, want 1", downAlerts)
	}
	if len(emails) != downAlerts {
		t.Errorf("emails = %d", len(emails))
	}

	// Restore: a RESOLVED alert follows.
	if err := n.Topo.SetLinkUp(leafLink, true); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(3 * time.Minute)
	if len(o.Down()) != 0 {
		t.Errorf("still down: %v", o.Down())
	}
	resolved := false
	for _, a := range o.Alerts() {
		if !a.Down && a.Target == lA {
			resolved = true
		}
	}
	if !resolved {
		t.Error("no RESOLVED alert")
	}
	o.Stop()
}

func TestRenewalLoopAndDashboard(t *testing.T) {
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n := buildNet(t, sim)
	defer n.Close()
	o := orchestrator.New(n)

	p, err := cppki.ProvisionISD(71, []addr.IA{c1}, []addr.IA{c1},
		cppki.ProvisionOptions{NotBefore: sim.Now().Add(-time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	caMat := p.CACerts[c1]
	caCert, err := x509.ParseCertificate(caMat.Cert)
	if err != nil {
		t.Fatal(err)
	}
	issuer := ca.New(c1, caCert, caMat.Key, 48*time.Hour, sim.Now)

	r, err := o.ManageRenewal(lA, issuer, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if r.Renewals() != 1 {
		t.Fatalf("initial renewals = %d", r.Renewals())
	}
	// A simulated week passes; renewals keep the certificate valid.
	sim.RunFor(7 * 24 * time.Hour)
	if r.Renewals() < 5 {
		t.Errorf("renewals after a week = %d", r.Renewals())
	}
	trcs := cppki.NewStore()
	if err := trcs.AddTrusted(p.TRC, sim.Now()); err != nil {
		t.Fatal(err)
	}
	trc, _ := trcs.Get(71)
	if err := cppki.VerifyChain(r.Chain(), trc, lA, sim.Now()); err != nil {
		t.Fatalf("chain invalid after a week: %v", err)
	}

	dash := o.Dashboard()
	for _, want := range []string{"71-1", "71-10", "up", "valid"} {
		if !strings.Contains(dash, want) {
			t.Errorf("dashboard missing %q:\n%s", want, dash)
		}
	}
	o.Stop()
}

// TestLoopsHoldOneTimer runs a monitoring loop for 720 one-minute
// cycles beside an hourly renewal loop: the orchestrator holds one
// timer per loop throughout, and after Stop nothing of it is pending
// and no tick fires.
func TestLoopsHoldOneTimer(t *testing.T) {
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n := buildNet(t, sim)
	defer n.Close()
	o := orchestrator.New(n)
	p, err := cppki.ProvisionISD(71, []addr.IA{c1}, []addr.IA{c1},
		cppki.ProvisionOptions{NotBefore: sim.Now().Add(-time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	caCert, err := x509.ParseCertificate(p.CACerts[c1].Cert)
	if err != nil {
		t.Fatal(err)
	}
	issuer := ca.New(c1, caCert, p.CACerts[c1].Key, 48*time.Hour, sim.Now)
	if _, err := o.ManageRenewal(lA, issuer, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := o.StartMonitoring(c1, time.Minute); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(12 * time.Hour)
	if got := orchestrator.Timers(o); got != 2 {
		t.Errorf("after 720 cycles the orchestrator holds %d timers, want 2 (one per loop)", got)
	}
	o.Stop()
	sim.RunFor(time.Minute) // the last cycle's pings answer or time out
	if got := sim.PendingEvents(); got != 0 {
		t.Fatalf("%d events pending after Stop", got)
	}
	before := sim.ProcessedEvents()
	sim.RunFor(12 * time.Hour)
	if got := sim.ProcessedEvents(); got != before {
		t.Errorf("%d events ran in the 12 h after Stop", got-before)
	}
}

// TestLoopStopOnRealClock stops a loop whose ticks run on timer
// goroutines while it ticks every millisecond: it holds one timer, and
// after Stop at most the tick already running completes.
func TestLoopStopOnRealClock(t *testing.T) {
	o := orchestrator.New(&core.Network{Transport: simnet.NewUDPNet()})
	var n atomic.Int64
	ticked := make(chan struct{}, 1)
	orchestrator.Loop(o, time.Millisecond, func() {
		n.Add(1)
		select {
		case ticked <- struct{}{}:
		default:
		}
	})
	for range 20 {
		<-ticked
	}
	if got := orchestrator.Timers(o); got != 1 {
		t.Errorf("one loop holds %d timers", got)
	}
	o.Stop()
	stopped := n.Load()
	time.Sleep(20 * time.Millisecond) // twenty periods: a live loop would tick
	if got := n.Load(); got > stopped+1 {
		t.Errorf("%d ticks after Stop", got-stopped)
	}
}
