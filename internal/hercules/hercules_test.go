package hercules_test

import (
	"bytes"
	"math/rand"
	"net/netip"
	"strconv"
	"testing"
	"time"

	"sciera/internal/addr"
	"sciera/internal/core"
	"sciera/internal/hercules"
	"sciera/internal/pan"
	"sciera/internal/simnet"
	"sciera/internal/telemetry"
	"sciera/internal/topology"
)

var (
	c1 = addr.MustParseIA("71-1")
	c2 = addr.MustParseIA("71-2")
	lA = addr.MustParseIA("71-10")
	lB = addr.MustParseIA("71-11")
)

// dmz builds a Science-DMZ-like topology: four parallel 100 Mbps core
// circuits between c1 and c2, fat access links.
func dmz(t testing.TB) (*core.Network, *simnet.Sim) {
	t.Helper()
	topo := topology.New()
	for _, ia := range []addr.IA{c1, c2} {
		if err := topo.AddAS(topology.ASInfo{IA: ia, Core: true}); err != nil {
			t.Fatal(err)
		}
	}
	for _, ia := range []addr.IA{lA, lB} {
		if err := topo.AddAS(topology.ASInfo{IA: ia}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		l, err := topo.AddLink(topology.LinkEnd{IA: c1}, topology.LinkEnd{IA: c2},
			topology.LinkCore, 10+float64(i), "")
		if err != nil {
			t.Fatal(err)
		}
		l.SetBandwidth(100)
	}
	la, err := topo.AddLink(topology.LinkEnd{IA: c1}, topology.LinkEnd{IA: lA}, topology.LinkParent, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	la.SetBandwidth(10_000)
	lb, err := topo.AddLink(topology.LinkEnd{IA: c2}, topology.LinkEnd{IA: lB}, topology.LinkParent, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	lb.SetBandwidth(10_000)

	sim := simnet.NewSim(time.Unix(1_700_000_000, 0))
	n, err := core.Build(topo, sim, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return n, sim
}

func transfer(t testing.TB, n *core.Network, sim *simnet.Sim, size int, maxPaths int) (*hercules.Stats, []byte) {
	t.Helper()
	dA, err := n.NewDaemon(lA)
	if err != nil {
		t.Fatal(err)
	}
	dB, err := n.NewDaemon(lB)
	if err != nil {
		t.Fatal(err)
	}
	hA := pan.WithDaemon(sim, dA)
	hB := pan.WithDaemon(sim, dB)

	recv, err := hercules.Receive(hB, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	data := make([]byte, size)
	rng := rand.New(rand.NewSource(9))
	rng.Read(data)

	stats, err := hercules.Send(hA, recv.Addr(), 42, data, hercules.Options{
		MaxPaths: maxPaths,
		Window:   32,
		RTO:      300 * time.Millisecond,
		Timeout:  60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The receiver completed before it sent the acknowledgement that
	// ended the transfer.
	select {
	case res := <-recv.Results():
		return stats, res.Data
	default:
		t.Fatal("receiver did not complete")
		return nil, nil
	}
}

func TestTransferIntegrity(t *testing.T) {
	n, sim := dmz(t)
	defer n.Close()
	size := 300 * 1024
	stats, got := transfer(t, n, sim, size, 4)
	if len(got) != size {
		t.Fatalf("received %d bytes, want %d", len(got), size)
	}
	if stats.PathsUsed < 2 {
		t.Errorf("paths used = %d", stats.PathsUsed)
	}
	if stats.ThroughputMbps <= 0 {
		t.Errorf("throughput = %v", stats.ThroughputMbps)
	}
	// Compare with a fresh copy of the source data.
	data := make([]byte, size)
	rand.New(rand.NewSource(9)).Read(data)
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted in flight")
	}
}

// coreLoad returns, for each of the four parallel c1-c2 circuits, how
// many packets c1's router forwarded onto it: the data direction of an
// lA -> lB transfer, counted by the network rather than by the sender.
func coreLoad(n *core.Network) []float64 {
	snap := n.TelemetrySnapshot()
	var load []float64
	for _, l := range n.Topo.Links() {
		if l.Type != topology.LinkCore {
			continue
		}
		v, _ := snap.Value("sciera_router_if_forwarded_total",
			telemetry.L("ia", c1.String()), telemetry.L("ifid", strconv.Itoa(int(l.A.IfID))))
		load = append(load, v)
	}
	return load
}

// TestMultipathBeatsSinglePath checks that striping aggregates the
// capacity of the parallel circuits. Every circuit is 100 Mbps, so a
// transfer can finish no faster than its busiest circuit drains: the
// busiest circuit of the striped transfer carries at most half of what
// the single-path circuit carried, and the striped transfer is at least
// 1.5x as fast in virtual time (the 400 KiB transfer is short enough
// that start-up, not capacity, bounds both).
func TestMultipathBeatsSinglePath(t *testing.T) {
	size := 400 * 1024
	chunks := float64((size + hercules.ChunkSize - 1) / hercules.ChunkSize)

	n1, sim1 := dmz(t)
	single, _ := transfer(t, n1, sim1, size, 1)
	load1 := coreLoad(n1)
	n1.Close()

	n4, sim4 := dmz(t)
	multi, _ := transfer(t, n4, sim4, size, 4)
	load4 := coreLoad(n4)
	n4.Close()

	busiest := func(load []float64) (max float64, used int) {
		for _, v := range load {
			if v > 0 {
				used++
			}
			if v > max {
				max = v
			}
		}
		return max, used
	}
	max1, used1 := busiest(load1)
	max4, used4 := busiest(load4)
	if single.PathsUsed != 1 || used1 != 1 || max1 < chunks {
		t.Fatalf("single-path: %d paths, circuit loads %v, want all %v chunks on one circuit",
			single.PathsUsed, load1, chunks)
	}
	if multi.PathsUsed < 3 || used4 < 3 {
		t.Fatalf("multipath: %d paths, circuit loads %v, want >= 3 circuits carrying data",
			multi.PathsUsed, load4)
	}
	if 2*max4 > max1 {
		t.Errorf("busiest striped circuit carried %v packets vs %v single-path (loads %v) — expected <= half",
			max4, max1, load4)
	}
	if multi.ThroughputMbps < 1.5*single.ThroughputMbps {
		t.Errorf("striped throughput %.1f Mbps vs %.1f single-path — expected >= 1.5x",
			multi.ThroughputMbps, single.ThroughputMbps)
	}
	t.Logf("circuit loads: single %v, multipath(4) %v; throughput %.1f vs %.1f Mbps",
		load1, load4, single.ThroughputMbps, multi.ThroughputMbps)
}

// TestTransferIsDeterministic: a transfer waits on the simulator, so on
// two identically built networks it takes the same virtual time with
// the same retransmissions, under loss as without.
func TestTransferIsDeterministic(t *testing.T) {
	for _, lossy := range []bool{false, true} {
		var runs [2]hercules.Stats
		for i := range runs {
			n, sim := dmz(t)
			if lossy {
				orig, rng := sim.Latency, rand.New(rand.NewSource(13))
				sim.Latency = func(from, to netip.AddrPort, size int) (time.Duration, bool) {
					d, ok := orig(from, to, size)
					return d, ok && rng.Float64() >= 0.05
				}
			}
			stats, _ := transfer(t, n, sim, 200*1024, 4)
			runs[i] = *stats
			n.Close()
		}
		if runs[0] != runs[1] {
			t.Errorf("lossy=%v: two identical transfers differ: %+v vs %+v", lossy, runs[0], runs[1])
		}
	}
}

func TestTinyTransfer(t *testing.T) {
	n, sim := dmz(t)
	defer n.Close()
	stats, got := transfer(t, n, sim, 100, 2)
	if len(got) != 100 || stats.Chunks != 1 {
		t.Fatalf("tiny transfer: %d bytes, %d chunks", len(got), stats.Chunks)
	}
}

// benchTransfer runs one full transfer and reports the virtual-time
// throughput — the single- vs multipath ablation the paper's
// Science-DMZ deployments motivate.
func benchTransfer(b *testing.B, maxPaths int) {
	b.ReportAllocs()
	var tput float64
	for i := 0; i < b.N; i++ {
		n, sim := dmz(b)
		const size = 2 << 20 // large enough that circuit bandwidth binds
		stats, got := transfer(b, n, sim, size, maxPaths)
		if len(got) != size {
			b.Fatalf("received %d bytes", len(got))
		}
		tput += stats.ThroughputMbps
		n.Close()
	}
	b.ReportMetric(tput/float64(b.N), "virtualMbps")
}

func BenchmarkHerculesSinglepath(b *testing.B) { benchTransfer(b, 1) }
func BenchmarkHerculesMultipath(b *testing.B)  { benchTransfer(b, 4) }
