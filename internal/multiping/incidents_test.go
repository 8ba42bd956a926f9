package multiping

import (
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/scenario"
)

// resolveFrom builds a name->id resolver over a fixed table.
func resolveFrom(tbl map[string]int) func(string) (int, bool) {
	return func(name string) (int, bool) {
		id, ok := tbl[name]
		return id, ok
	}
}

// TestBuildEventsOutage checks the simple down/up pair for a plain
// outage window across multiple circuits.
func TestBuildEventsOutage(t *testing.T) {
	resolve := resolveFrom(map[string]int{"dj-sg": 4, "hk-sg": 9})
	events, err := BuildEvents(resolve, []scenario.Incident{{
		Name:          "cable cut",
		Links:         []string{"dj-sg", "hk-sg"},
		StartHours:    24,
		DurationHours: 48,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4 (down+up per link)", len(events))
	}
	for _, e := range events[:2] {
		if e.LinkID != 4 {
			t.Errorf("first link id = %d", e.LinkID)
		}
	}
	if events[0].Up || events[0].At != 24*time.Hour {
		t.Errorf("down event = %+v", events[0])
	}
	if !events[1].Up || events[1].At != 72*time.Hour {
		t.Errorf("up event = %+v", events[1])
	}
}

// TestBuildEventsFlap checks the flap expansion: one down/up pair per
// period, honoring the explicit downtime, plus the final restore.
func TestBuildEventsFlap(t *testing.T) {
	resolve := resolveFrom(map[string]int{"bridges": 7})
	events, err := BuildEvents(resolve, []scenario.Incident{{
		Name:              "bridges flap",
		Links:             []string{"bridges"},
		StartHours:        1,
		DurationHours:     4,
		FlapPeriodHours:   2,
		FlapDowntimeHours: 0.5,
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Two flap cycles (down at 1h up at 1h30, down at 3h up at 3h30)
	// plus the final restore at 5h.
	if len(events) != 5 {
		t.Fatalf("events = %d, want 5: %+v", len(events), events)
	}
	if events[0].Up || events[0].At != time.Hour {
		t.Errorf("cycle 1 down = %+v", events[0])
	}
	if !events[1].Up || events[1].At != time.Hour+30*time.Minute {
		t.Errorf("cycle 1 up = %+v", events[1])
	}
	if events[2].Up || events[2].At != 3*time.Hour {
		t.Errorf("cycle 2 down = %+v", events[2])
	}
	last := events[len(events)-1]
	if !last.Up || last.At != 5*time.Hour {
		t.Errorf("final restore = %+v", last)
	}
}

// TestBuildEventsDefaults: zero/oversized downtime falls back to half
// the period; unknown links error out.
func TestBuildEventsDefaults(t *testing.T) {
	resolve := resolveFrom(map[string]int{"x": 1})
	events, err := BuildEvents(resolve, []scenario.Incident{{
		Name:            "flappy",
		Links:           []string{"x"},
		DurationHours:   2,
		FlapPeriodHours: 1,
		// FlapDowntimeHours unset -> period/2.
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !events[1].Up || events[1].At != 30*time.Minute {
		t.Errorf("default downtime up event = %+v", events[1])
	}

	if _, err := BuildEvents(resolve, []scenario.Incident{{
		Name:  "broken",
		Links: []string{"nope"},
	}}); err == nil {
		t.Error("unknown link accepted")
	}
}

// TestBuildEventsDowntimeClamped: a flap downtime reaching past the
// incident end is clamped to the window.
func TestBuildEventsDowntimeClamped(t *testing.T) {
	resolve := resolveFrom(map[string]int{"x": 1})
	events, err := BuildEvents(resolve, []scenario.Incident{{
		Name:              "tail flap",
		Links:             []string{"x"},
		DurationHours:     1.5,
		FlapPeriodHours:   1,
		FlapDowntimeHours: 0.75,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.At > 90*time.Minute {
			t.Errorf("event beyond incident window: %+v", e)
		}
	}
}

// TestPathTypeString covers the probe path labels used in reports.
func TestPathTypeString(t *testing.T) {
	cases := map[PathType]string{
		Shortest:     "shortest",
		Fastest:      "fastest",
		MostDisjoint: "disjoint",
		PathType(99): "?",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}

// TestProbeInflation feeds synthetic records and checks the CDF of
// second-best/best ratios, including skip rules for failed probes and
// stalled IP intervals.
func TestProbeInflation(t *testing.T) {
	src, dst := addr.MustParseIA("71-1"), addr.MustParseIA("71-2")
	d := &Dataset{Records: []Record{
		// Ratio 1.5.
		{Src: src, Dst: dst, RTTms: [3]float64{10, 15, 20}},
		// Ratio 2 (one failed probe ignored).
		{Src: src, Dst: dst, RTTms: [3]float64{-1, 30, 60}},
		// Only one usable probe: skipped.
		{Src: src, Dst: dst, RTTms: [3]float64{-1, -1, 40}},
		// IP-stalled interval: excluded entirely.
		{Src: src, Dst: dst, RTTms: [3]float64{10, 10, 10}, IPMissing: true},
		// Zero best RTT: skipped (guards the division).
		{Src: src, Dst: dst, RTTms: [3]float64{0, 5, 9}},
	}}
	cdf := d.ProbeInflation()
	if got := cdf.Len(); got != 2 {
		t.Fatalf("inflation samples = %d, want 2", got)
	}
	if med := cdf.Percentile(50); med < 1.5 || med > 2 {
		t.Errorf("median inflation = %v, want within [1.5, 2]", med)
	}
	// All mass at >= 1: a second-best path is never faster than the best.
	if below := cdf.FractionBelow(1.0); below != 0 {
		t.Errorf("fraction below 1.0 = %v", below)
	}
}
