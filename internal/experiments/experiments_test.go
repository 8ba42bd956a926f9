package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sciera/internal/multiping"
	"sciera/internal/scenario"
)

var cfg = Config{Seed: 7, Quick: true}

func TestStaticExperiments(t *testing.T) {
	for _, name := range []string{"table1", "fig1", "fig3", "table2", "enablement", "survey"} {
		name := name
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(&buf, name, cfg); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("no output")
			}
		})
	}
	if err := Run(&bytes.Buffer{}, "nonsense", cfg); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFigure4Quick(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure4(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Windows", "Linux", "Mac", "hint retrieval", "config retrieval", "DHCP-VIVO", "mDNS"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 4 output missing %q", want)
		}
	}
}

func TestCampaignFiguresQuick(t *testing.T) {
	ds, n, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	duration, interval, _ := cfg.campaign()

	s := cfg.scn()
	var buf bytes.Buffer
	Figure5(&buf, ds)
	Figure6(&buf, s, ds)
	Figure7(&buf, s, ds)
	Figure8(&buf, s, ds)
	Figure9(&buf, s, ds, duration, interval)
	Figure10a(&buf, ds)
	Figure10b(&buf, s, n)
	out := buf.String()
	for _, want := range []string{
		"Figure 5", "Figure 6", "Figure 7", "Figure 8", "Figure 9",
		"Figure 10a", "Figure 10b",
		"median: SCION", "ratio", "active paths",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("campaign output missing %q", want)
		}
	}

	// Shape invariants on the quick campaign.
	scion, ip := ds.PingCDFs()
	if scion.Len() == 0 || ip.Len() == 0 {
		t.Fatal("empty campaign")
	}
	// The quick vantage set is region-spanning: medians must land in
	// the intercontinental regime.
	if m := scion.Median(); m < 50 || m > 400 {
		t.Errorf("SCION median = %v", m)
	}
	// Latency inflation is >= 1 and mostly small.
	infl := ds.LatencyInflation()
	if infl.Min() < 1 {
		t.Errorf("inflation min = %v", infl.Min())
	}
	if infl.FractionBelow(1.5) < 0.5 {
		t.Errorf("inflation: less than half below 1.5 (%v)", infl.FractionBelow(1.5))
	}
}

func TestFigure10cQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure10c(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "multipath connectivity") {
		t.Fatalf("missing table:\n%s", out)
	}
	// Parse the 0% row: both start at 100.
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 3 && fields[0] == "0" {
			if fields[1] != "100" || fields[2] != "100" {
				t.Errorf("0%% removal row = %v", fields)
			}
		}
		// At 100% removal both are 0.
		if len(fields) >= 3 && fields[0] == "100" {
			if fields[1] != "0" || fields[2] != "0" {
				t.Errorf("100%% removal row = %v", fields)
			}
		}
	}
}

func TestDOTOutput(t *testing.T) {
	n, _, err := BuildNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	dot := DOT(n.Topo)
	for _, want := range []string{"graph sciera", "71-20965", "--", "}"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestOSProfilesOrdering(t *testing.T) {
	ps := OSProfiles()
	if len(ps) != 3 {
		t.Fatalf("profiles = %d", len(ps))
	}
	// Windows heaviest, Linux lightest — the Figure 4 ordering.
	var win, lin OSProfile
	for _, p := range ps {
		switch p.Name {
		case "Windows":
			win = p
		case "Linux":
			lin = p
		}
	}
	if win.BaseMS <= lin.BaseMS {
		t.Error("Windows should carry more overhead than Linux")
	}
	_ = time.Now
}

// TestRunDispatch drives every named experiment through the public Run
// entry point (the cmd/experiments code path), sharing nothing — each
// name must produce its own output and a recognizable header.
func TestRunDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick campaign per campaign-backed figure")
	}
	headers := map[string]string{
		"table1":     "Table 1",
		"fig1":       "Figure 1",
		"fig3":       "Figure 3",
		"fig4":       "Figure 4",
		"fig10b":     "Figure 10b",
		"table2":     "Table 2",
		"enablement": "enablement",
		"survey":     "survey",
		// One campaign-backed figure exercises the shared-campaign
		// branch of Run; the rest are covered by
		// TestCampaignFiguresQuick without re-running campaigns.
		"fig8": "Figure 8",
	}
	for name, want := range headers {
		var buf bytes.Buffer
		if err := Run(&buf, name, cfg); err != nil {
			t.Fatalf("Run(%q): %v", name, err)
		}
		if !strings.Contains(strings.ToLower(buf.String()), strings.ToLower(want)) {
			t.Errorf("Run(%q) output missing %q", name, want)
		}
	}
	// Unknown names error.
	var buf bytes.Buffer
	if err := Run(&buf, "fig99", cfg); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunAllQuick runs the complete suite once in quick mode — the
// exact path of `cmd/experiments -all -quick`.
func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite")
	}
	var buf bytes.Buffer
	if err := RunAll(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Figure 1", "Figure 3", "Figure 4", "Figure 5",
		"Figure 6", "Figure 7", "Figure 8", "Figure 9", "Figure 10a",
		"Figure 10b", "Figure 10c", "Table 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RunAll output missing %q", want)
		}
	}
}

// TestCampaignDeterminism backs EXPERIMENTS.md's central reproducibility
// claim: two campaigns with the same seed must produce byte-identical
// datasets, and a different seed changes only the control plane's
// accumulators, never a measurement.
func TestCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three quick campaigns")
	}
	run := func(seed int64) *multiping.Dataset {
		ds, n, err := RunCampaign(Config{Seed: seed, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		n.Close()
		return ds
	}
	a, b := run(42), run(42)
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs:\n  %+v\n  %+v", i, a.Records[i], b.Records[i])
		}
	}
	if a.Probes != b.Probes {
		t.Errorf("probe counts differ: %d vs %d", a.Probes, b.Probes)
	}
	if len(a.PathCounts) != len(b.PathCounts) {
		t.Errorf("path-count samples differ: %d vs %d", len(a.PathCounts), len(b.PathCounts))
	}

	// The measurements themselves are topology-determined: a different
	// seed re-randomizes the control plane's accumulators but must not
	// change what the campaign measures.
	c := run(43)
	if len(a.Records) != len(c.Records) {
		t.Fatalf("record counts differ across seeds: %d vs %d", len(a.Records), len(c.Records))
	}
	for i := range a.Records {
		if a.Records[i] != c.Records[i] {
			t.Fatalf("seed leaked into measurement %d:\n  %+v\n  %+v", i, a.Records[i], c.Records[i])
		}
	}
	// ... while the accumulators do differ (the seed is not ignored).
	n42, _, err := BuildNetwork(42)
	if err != nil {
		t.Fatal(err)
	}
	defer n42.Close()
	n43, _, err := BuildNetwork(43)
	if err != nil {
		t.Fatal(err)
	}
	defer n43.Close()
	vantage := scenario.MustBuiltin("sciera").Vantage
	src, dst := vantage[0], vantage[1]
	p42, p43 := n42.Paths(src, dst), n43.Paths(src, dst)
	if len(p42) == 0 || len(p43) == 0 {
		t.Fatal("no paths for accumulator comparison")
	}
	if p42[0].Fingerprint != p43[0].Fingerprint {
		t.Errorf("route selection changed across seeds: %s vs %s", p42[0].Fingerprint, p43[0].Fingerprint)
	}
	if p42[0].Raw.Infos[0].SegID == p43[0].Raw.Infos[0].SegID {
		t.Error("accumulators identical across seeds (seed unused in beaconing)")
	}
}
