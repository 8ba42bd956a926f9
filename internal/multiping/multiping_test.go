package multiping_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/core"
	"sciera/internal/multiping"
	"sciera/internal/scenario"
	_ "sciera/internal/sciera" // registers the builtin "sciera" scenario
	"sciera/internal/simnet"
)

// smallCampaign runs a few hours over the real SCIERA topology with a
// reduced vantage set.
func smallCampaign(t testing.TB, hours int, stall bool, incidents []multiping.IncidentEvent,
	vantage []addr.IA) (*core.Network, *multiping.Dataset) {
	t.Helper()
	n, camp := newCampaign(t, multiping.Config{
		Vantage:    vantage,
		Interval:   5 * time.Minute,
		Duration:   time.Duration(hours) * time.Hour,
		Incidents:  incidents,
		StallModel: stall,
		Seed:       1,
	})
	defer camp.Close()
	ds, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	return n, ds
}

// newCampaign prepares a campaign over the real SCIERA topology; cfg's
// vantage set defaults to four sites on four continents and its IP
// baseline to the SCIERA IP plane.
func newCampaign(t testing.TB, cfg multiping.Config) (*core.Network, *multiping.Campaign) {
	t.Helper()
	s := scenario.MustBuiltin("sciera")
	topo, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n, err := core.Build(topo, sim, core.Options{Seed: 7, BestPerOrigin: 8})
	if err != nil {
		t.Fatal(err)
	}
	ipTopo, err := s.BuildIPPlane()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Vantage == nil {
		cfg.Vantage = []addr.IA{
			addr.MustParseIA("71-20965"),  // GEANT
			addr.MustParseIA("71-2:0:3b"), // KISTI DJ
			addr.MustParseIA("71-225"),    // UVa
			addr.MustParseIA("71-2:0:5c"), // UFMS
		}
	}
	cfg.IPRTT = s.IPBaseline(ipTopo).RTTms
	camp, err := multiping.NewCampaign(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, camp
}

func TestCampaignProducesPlausibleRTTs(t *testing.T) {
	_, ds := smallCampaign(t, 3, false, nil, nil)
	if len(ds.Records) == 0 {
		t.Fatal("no records")
	}
	if got := ds.SuccessRatio(); got < 0.99 {
		t.Errorf("success ratio = %v", got)
	}
	scion, ip := ds.PingCDFs()
	if scion.Len() == 0 || ip.Len() == 0 {
		t.Fatal("empty CDFs")
	}
	// Sanity: global medians within intercontinental ranges.
	if m := scion.Median(); m < 20 || m > 400 {
		t.Errorf("SCION median = %v ms", m)
	}
	if m := ip.Median(); m < 20 || m > 400 {
		t.Errorf("IP median = %v ms", m)
	}
	// Probe volume: 12 pairs * 36 intervals * 3 paths.
	if ds.Probes < 1000 {
		t.Errorf("probes = %d", ds.Probes)
	}
	// Latency inflation is >= 1 by construction.
	infl := ds.LatencyInflation()
	if infl.Len() == 0 || infl.Min() < 1 {
		t.Errorf("inflation: n=%d min=%v", infl.Len(), infl.Min())
	}
}

func TestCampaignPathCounts(t *testing.T) {
	_, ds := smallCampaign(t, 1, false, nil, nil)
	max := ds.MaxActivePaths()
	if len(max) == 0 {
		t.Fatal("no path counts")
	}
	for pair, count := range max {
		if count < 1 {
			t.Errorf("%v -> %v: %d paths", pair.Src, pair.Dst, count)
		}
	}
	dev := ds.MedianPathDeviation(time.Hour, 5*time.Minute)
	for pair, d := range dev {
		if d != 0 {
			t.Errorf("stable network but deviation %d for %v->%v", d, pair.Src, pair.Dst)
		}
	}
}

func TestCampaignWithIncident(t *testing.T) {
	topo, err := scenario.MustBuiltin("sciera").Build()
	if err != nil {
		t.Fatal(err)
	}
	var incidents []multiping.IncidentEvent
	for _, name := range []string{"KREONET DJ-SG", "KREONET HK-SG"} {
		linkID, ok := topo.LinkIDByName(name)
		if !ok {
			t.Fatalf("link %q not found", name)
		}
		incidents = append(incidents, multiping.IncidentEvent{
			At: 30 * time.Minute, LinkID: linkID, Up: false, Name: "cable cut",
		})
	}
	dj := addr.MustParseIA("71-2:0:3b")
	sg := addr.MustParseIA("71-2:0:3d")
	_, ds := smallCampaign(t, 2, false, incidents, []addr.IA{dj, sg})

	// RTT between DJ and SG jumps after the cut (around-the-globe
	// path), but connectivity persists — the Section 5.5 resilience
	// anecdote.
	var before, after []float64
	for _, r := range ds.Records {
		if r.Src != dj || r.Dst != sg || r.SCIONOK == 0 {
			continue
		}
		if r.T < 30*time.Minute {
			before = append(before, r.SCIONRTTms)
		} else if r.T > 40*time.Minute {
			after = append(after, r.SCIONRTTms)
		}
	}
	if len(before) == 0 || len(after) == 0 {
		t.Fatalf("missing samples: %d before, %d after", len(before), len(after))
	}
	// Direct circuit: ~4650 km geodesic with cable detour, so <100ms RTT.
	if before[0] >= 100 {
		t.Errorf("pre-cut RTT = %v ms, expected direct circuit", before[0])
	}
	if after[len(after)-1] <= before[0]*2 {
		t.Errorf("post-cut RTT = %v ms, expected detour around the globe (pre: %v)",
			after[len(after)-1], before[0])
	}
}

func TestStallModelExcludesIntervals(t *testing.T) {
	_, ds := smallCampaign(t, 3, true, nil, nil)
	missing := 0
	for _, r := range ds.Records {
		if r.IPMissing {
			missing++
		}
	}
	if missing == 0 {
		t.Error("stall model produced no missing intervals")
	}
	if missing >= len(ds.Records)/2 {
		t.Errorf("stall model excluded %d/%d intervals", missing, len(ds.Records))
	}
	// Excluded intervals do not enter the CDFs.
	scion, _ := ds.PingCDFs()
	counted := 0
	for _, r := range ds.Records {
		if !r.IPMissing && r.SCIONOK > 0 {
			counted++
		}
	}
	if scion.Len() != counted {
		t.Errorf("CDF has %d samples, want %d", scion.Len(), counted)
	}
}

func TestDatasetSaveLoad(t *testing.T) {
	_, ds := smallCampaign(t, 1, false, nil, nil)
	path := filepath.Join(t.TempDir(), "dataset.json")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := multiping.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(ds.Records) || got.Probes != ds.Probes {
		t.Errorf("round trip: %d/%d records, %d/%d probes",
			len(got.Records), len(ds.Records), got.Probes, ds.Probes)
	}
	if _, err := multiping.Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading missing file succeeded")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := multiping.Load(bad); err == nil {
		t.Error("loading corrupt file succeeded")
	}
}

func TestPairRatiosAndTimeSeries(t *testing.T) {
	_, ds := smallCampaign(t, 2, false, nil, nil)
	ratios := ds.PairRatios()
	if len(ratios) != 12 {
		t.Errorf("pairs = %d, want 12", len(ratios))
	}
	for pair, ratio := range ratios {
		if ratio <= 0 || ratio > 10 {
			t.Errorf("%v -> %v ratio = %v", pair.Src, pair.Dst, ratio)
		}
	}
	series := ds.RatioOverTime(time.Hour)
	if len(series) != 2 {
		t.Errorf("buckets = %d, want 2", len(series))
	}
	for _, b := range series {
		if b.Mean <= 0 {
			t.Errorf("bucket %v mean = %v", b.Start, b.Mean)
		}
	}
}

// TestLateRepliesStayOutOfLaterRounds runs rounds 20 ms apart between
// sites well over 100 ms apart, so every reply arrives rounds after the
// record of its own round was appended. Such a reply belongs to no open
// record: every record must come out empty, one per pair per round, in
// pair order.
func TestLateRepliesStayOutOfLaterRounds(t *testing.T) {
	const rounds = 50
	n, camp := newCampaign(t, multiping.Config{
		Vantage:  []addr.IA{addr.MustParseIA("71-2:0:3b"), addr.MustParseIA("71-2:0:5c")}, // KISTI DJ, UFMS
		Interval: 20 * time.Millisecond,
		Duration: rounds * 20 * time.Millisecond,
	})
	defer n.Close()
	defer camp.Close()
	ds, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Records) != 2*rounds || ds.Probes != 3*2*rounds {
		t.Fatalf("%d records, %d probes; want %d and %d", len(ds.Records), ds.Probes, 2*rounds, 3*2*rounds)
	}
	for i, r := range ds.Records {
		if r.T != time.Duration(i/2)*20*time.Millisecond || r.Seq != uint64(i%2) {
			t.Fatalf("record %d is (T %v, seq %d): not in round-then-pair order", i, r.T, r.Seq)
		}
		if r.SCIONOK != 0 || r.SCIONRTTms != -1 || r.RTTms != [3]float64{-1, -1, -1} {
			t.Fatalf("record %d took a reply sent in an earlier round: %+v", i, r)
		}
	}
	if lost := n.TelemetrySnapshot().Total("sciera_multiping_lost_total"); lost != 0 {
		t.Errorf("%v probes counted lost; the replies were late, not lost", lost)
	}
}

// TestSynchronousProbeFailuresCount: probes that fail inside Ping (here
// because the sockets are closed) fail before round returns, and must
// count toward the two-failures trigger like any other — every round
// after such a round starts with a full probe.
func TestSynchronousProbeFailuresCount(t *testing.T) {
	const rounds = 4
	n, camp := newCampaign(t, multiping.Config{
		Vantage:  []addr.IA{addr.MustParseIA("71-20965"), addr.MustParseIA("71-225")},
		Interval: time.Minute,
		Duration: rounds * time.Minute,
	})
	defer n.Close()
	camp.Close()
	ds, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.PathCounts) != 2*rounds {
		t.Errorf("%d full probes over %d rounds of failing probes, want one per pair per round (%d)", len(ds.PathCounts), rounds, 2*rounds)
	}
	if got := ds.SuccessRatio(); got != 0 {
		t.Errorf("success ratio %v with closed sockets", got)
	}
}

func TestCampaignValidation(t *testing.T) {
	topo, _ := scenario.MustBuiltin("sciera").Build()
	sim := simnet.NewSim(time.Unix(0, 0))
	n, err := core.Build(topo, sim, core.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := multiping.NewCampaign(n, multiping.Config{}); err == nil {
		t.Error("campaign without IPRTT accepted")
	}
}
