package traffic_test

import (
	"math/rand"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/core"
	"sciera/internal/lightningfilter"
	"sciera/internal/simnet"
	"sciera/internal/topology"
	"sciera/internal/traffic"
)

var (
	loadA = addr.MustParseIA("71-1")
	loadZ = addr.MustParseIA("71-2")
)

// fixedSize removes size randomness where a test needs a predictable
// offered load.
type fixedSize struct{ n int }

func (f fixedSize) Sample(*rand.Rand) int { return f.n }

// loadNet builds a two-AS network whose single circuit has the given
// bandwidth cap in Mbps (0 = uncapped), returning the link ID for
// failure injection.
func loadNet(t testing.TB, mbps float64) (*core.Network, *simnet.Sim, int) {
	t.Helper()
	topo := topology.New()
	for _, ia := range []addr.IA{loadA, loadZ} {
		if err := topo.AddAS(topology.ASInfo{IA: ia, Core: true}); err != nil {
			t.Fatal(err)
		}
	}
	l, err := topo.AddLink(topology.LinkEnd{IA: loadA}, topology.LinkEnd{IA: loadZ}, topology.LinkCore, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if mbps > 0 {
		l.SetBandwidth(mbps)
	}
	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n, err := core.Build(topo, sim, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return n, sim, l.ID
}

// TestPerPathSaturation drives the engine against a 10 Mbps circuit at
// two offered loads: well under capacity and several times over it. The
// transmit-queue model must surface the overload as queueing delay —
// median flow completion time inflating by an order of magnitude — while
// the under-capacity run stays near the propagation floor. This is the
// per-path saturation experiment from the deployment paper's capacity
// planning, reproduced in the simulator.
func TestPerPathSaturation(t *testing.T) {
	run := func(rate float64) (median float64) {
		n, sim, _ := loadNet(t, 10)
		defer n.Close()
		e, err := traffic.New(n, traffic.Config{
			Pairs:          []traffic.Pair{{Src: loadA, Dst: loadZ}},
			ArrivalRate:    rate,
			FlowSizes:      fixedSize{16},
			PayloadBytes:   200,
			PacketInterval: time.Millisecond,
			Burst:          4,
			Seed:           11,
		})
		if err != nil {
			t.Fatal(err)
		}
		traffic.CheckConserved(t, n, sim, e)
		defer e.Close()
		e.Start(500 * time.Millisecond)
		sim.Run()
		st := e.Stats()
		if st.FlowsCompleted == 0 {
			t.Fatalf("no flows completed at rate %v", rate)
		}
		return e.FCT().Quantile(0.5)
	}

	light := run(50)   // ~1.3 Mbps offered
	heavy := run(3000) // ~77 Mbps offered into a 10 Mbps circuit
	if heavy < 5*light {
		t.Fatalf("saturation invisible: median FCT light=%.3fms heavy=%.3fms", light, heavy)
	}
}

// TestSCMPBackpressureOnLinkDown fails the only circuit mid-run: the
// border router must originate SCMP ExternalInterfaceDown toward the
// sources, and the engine's backpressure counters must attribute the
// loss to the downed link.
func TestSCMPBackpressureOnLinkDown(t *testing.T) {
	n, sim, linkID := loadNet(t, 0)
	defer n.Close()
	e, err := traffic.New(n, traffic.Config{
		Pairs:          []traffic.Pair{{Src: loadA, Dst: loadZ}},
		ArrivalRate:    1000,
		FlowSizes:      fixedSize{16},
		PayloadBytes:   120,
		PacketInterval: 2 * time.Millisecond,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	traffic.CheckConserved(t, n, sim, e)
	defer e.Close()
	e.Start(300 * time.Millisecond)
	sim.AfterFunc(150*time.Millisecond, func() {
		if err := n.SetLinkUp(linkID, false); err != nil {
			t.Errorf("SetLinkUp: %v", err)
		}
	})
	sim.Run()

	st := e.Stats()
	if st.PacketsDelivered >= st.PacketsSent {
		t.Fatalf("no loss despite downed circuit: sent=%d delivered=%d", st.PacketsSent, st.PacketsDelivered)
	}
	if st.SCMPBackpressure == 0 {
		t.Fatal("no SCMP backpressure recorded at the sources")
	}
	if st.SCMPLinkDown == 0 {
		t.Fatal("SCMP errors not attributed to the downed circuit")
	}
	if st.SCMPLinkDown > st.SCMPBackpressure {
		t.Fatalf("link-down count %d exceeds total backpressure %d", st.SCMPLinkDown, st.SCMPBackpressure)
	}
	// Open loop: arrivals before the horizon keep emitting into the
	// failure; the delivered half completed, the rest stay incomplete.
	if st.FlowsCompleted >= st.FlowsStarted {
		t.Fatal("every flow completed despite a downed circuit")
	}
}

// TestFilterRateLimitUnderLoad deploys a LightningFilter in front of
// the sink AS and pushes an authenticated open-loop load past its
// per-source packet budget. The filter must pass traffic up to the
// token-bucket rate and shed the excess as DropRateLimited — the
// behavior that protects a SCIERA site from a compromised peer — while
// everything it passes verifies (no unauthenticated drops: the engine
// seals every flow).
func TestFilterRateLimitUnderLoad(t *testing.T) {
	n, sim, _ := loadNet(t, 0)
	defer n.Close()

	master := []byte("ufms-drkey-master-secret")
	f, err := lightningfilter.New(lightningfilter.Config{
		Local:   loadZ,
		Master:  master,
		MaxAge:  time.Minute,
		RatePPS: 1000, // burst 2000: well under the ~4000 pps offered
		Now:     sim.Now,
	})
	if err != nil {
		t.Fatal(err)
	}

	e, err := traffic.New(n, traffic.Config{
		Pairs:          []traffic.Pair{{Src: loadA, Dst: loadZ}},
		ArrivalRate:    500,
		FlowSizes:      fixedSize{8},
		PayloadBytes:   120,
		PacketInterval: 2 * time.Millisecond,
		Seed:           17,
		Wrap: func(src addr.IA, at time.Time, inner []byte) []byte {
			body, err := lightningfilter.Seal(master, at, 3*time.Hour, src, inner)
			if err != nil {
				panic(err)
			}
			return body
		},
		Unwrap: func(payload []byte) ([]byte, bool) {
			_, inner, ok := lightningfilter.DecodeAuth(payload)
			return inner, ok
		},
		SinkCheck: func(raw []byte) bool {
			return f.CheckRaw(raw) == lightningfilter.Pass
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	traffic.CheckConserved(t, n, sim, e)
	defer e.Close()
	e.Start(time.Second)
	sim.Run()

	st := e.Stats()
	m := f.Metrics()
	if m.Passed.Load() == 0 {
		t.Fatal("filter passed nothing: sealing broken")
	}
	if m.RateLimited.Load() == 0 {
		t.Fatalf("filter never rate-limited at %d pps offered", st.PacketsSent)
	}
	if m.Unauthenticated.Load() != 0 || m.Unparseable.Load() != 0 || m.Expired.Load() != 0 {
		t.Fatalf("sealed traffic rejected for the wrong reason: %d unauth, %d unparseable, %d expired",
			m.Unauthenticated.Load(), m.Unparseable.Load(), m.Expired.Load())
	}
	if st.SinkRejected != m.RateLimited.Load() {
		t.Fatalf("engine rejected %d != filter rate-limited %d", st.SinkRejected, m.RateLimited.Load())
	}
	if st.PacketsDelivered+st.SinkRejected != st.PacketsSent {
		t.Fatalf("accounting leak: delivered %d + rejected %d != sent %d",
			st.PacketsDelivered, st.SinkRejected, st.PacketsSent)
	}
	if st.FlowsCompleted >= st.FlowsStarted {
		t.Fatal("rate-limited flows still all completed")
	}
	if e.IncompleteFlows() == 0 {
		t.Fatal("shed packets left no incomplete flows")
	}
}

// TestEngineDeterministicUnderFilter re-runs the filtered workload and
// demands identical shed/pass accounting: the admission pipeline must
// not introduce nondeterminism.
func TestEngineDeterministicUnderFilter(t *testing.T) {
	run := func() traffic.Stats {
		n, sim, _ := loadNet(t, 0)
		defer n.Close()
		master := []byte("ufms-drkey-master-secret")
		f, err := lightningfilter.New(lightningfilter.Config{
			Local: loadZ, Master: master, MaxAge: time.Minute, RatePPS: 1000, Now: sim.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		e, err := traffic.New(n, traffic.Config{
			Pairs:          []traffic.Pair{{Src: loadA, Dst: loadZ}},
			ArrivalRate:    500,
			FlowSizes:      fixedSize{8},
			PayloadBytes:   120,
			PacketInterval: 2 * time.Millisecond,
			Seed:           17,
			Wrap: func(src addr.IA, at time.Time, inner []byte) []byte {
				body, err := lightningfilter.Seal(master, at, 3*time.Hour, src, inner)
				if err != nil {
					panic(err)
				}
				return body
			},
			Unwrap: func(payload []byte) ([]byte, bool) {
				_, inner, ok := lightningfilter.DecodeAuth(payload)
				return inner, ok
			},
			SinkCheck: func(raw []byte) bool {
				return f.CheckRaw(raw) == lightningfilter.Pass
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		traffic.CheckConserved(t, n, sim, e)
		defer e.Close()
		e.Start(400 * time.Millisecond)
		sim.Run()
		return e.Stats()
	}
	if s1, s2 := run(), run(); s1 != s2 {
		t.Fatalf("filtered runs diverged:\n  %+v\n  %+v", s1, s2)
	}
}
