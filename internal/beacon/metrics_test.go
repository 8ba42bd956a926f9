package beacon

import (
	"reflect"
	"testing"

	"sciera/internal/telemetry"
)

// TestCountersTableIsTheOneDeclaration: a row added to the counters
// table — and nothing else — makes a counter scraped (Register),
// captured (Counters) and restored (Restore); every RunnerMetrics
// counter field is a row; a name that is no row restores nothing.
func TestCountersTableIsTheOneDeclaration(t *testing.T) {
	var extra telemetry.Counter
	counters = append(counters, struct {
		name, help string
		cell       func(*RunnerMetrics) *telemetry.Counter
	}{"sciera_beacon_test_total", "a counter only this test declares",
		func(*RunnerMetrics) *telemetry.Counter { return &extra }})
	defer func() { counters = counters[:len(counters)-1] }()

	m := &RunnerMetrics{}
	for i, c := range counters {
		c.cell(m).Add(uint64(i + 1))
	}
	for v, i := reflect.ValueOf(m).Elem(), 0; i < v.NumField(); i++ {
		if cell, ok := v.Field(i).Addr().Interface().(*telemetry.Counter); ok && cell.Load() == 0 {
			t.Errorf("RunnerMetrics.%s is in no row of the counters table", v.Type().Field(i).Name)
		}
	}

	reg := telemetry.NewRegistry()
	m.Register(reg)
	scraped, captured := reg.Snapshot(), m.Counters()
	if len(captured) != len(counters) {
		t.Fatalf("captured %d counters, the table has %d", len(captured), len(counters))
	}
	for i, c := range counters {
		want := uint64(i + 1)
		if got, ok := scraped.Value(c.name); !ok || got != float64(want) {
			t.Errorf("%s: scraped %v (registered: %v), want %d", c.name, got, ok, want)
		}
		if captured[c.name] != want {
			t.Errorf("%s: captured %d, want %d", c.name, captured[c.name], want)
		}
	}

	extra = telemetry.Counter{}
	fresh := &RunnerMetrics{}
	captured["sciera_beacon_no_such_total"] = 1
	fresh.Restore(captured)
	delete(captured, "sciera_beacon_no_such_total")
	if got := fresh.Counters(); len(got) != len(captured) {
		t.Fatalf("restored %d counters of %d", len(got), len(captured))
	} else {
		for name, want := range captured {
			if got[name] != want {
				t.Errorf("%s: restored %d, want %d", name, got[name], want)
			}
		}
	}
}
