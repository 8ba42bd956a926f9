package beacon

import (
	"testing"

	"sciera/internal/addr"
	"sciera/internal/topology"
)

// TestNoCommercialTransit verifies the Section 4.9 path policy: traffic
// from a commercial provider may terminate inside the research network,
// but no advertised path carries commercial-to-commercial transit
// through it.
func TestNoCommercialTransit(t *testing.T) {
	// commA === academic === commB   (all core)
	topo := topology.New()
	commA := addr.MustParseIA("64-100")
	commB := addr.MustParseIA("64-200")
	academic := addr.MustParseIA("71-1")
	leaf := addr.MustParseIA("71-10")
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(topo.AddAS(topology.ASInfo{IA: commA, Core: true, Commercial: true}))
	must(topo.AddAS(topology.ASInfo{IA: commB, Core: true, Commercial: true}))
	must(topo.AddAS(topology.ASInfo{IA: academic, Core: true}))
	must(topo.AddAS(topology.ASInfo{IA: leaf}))
	link := func(a, b addr.IA, typ topology.LinkType) {
		_, err := topo.AddLink(topology.LinkEnd{IA: a}, topology.LinkEnd{IA: b}, typ, 5, "")
		must(err)
	}
	link(commA, academic, topology.LinkCore)
	link(academic, commB, topology.LinkCore)
	link(academic, leaf, topology.LinkParent)

	r := &Runner{Topo: topo, Keys: rkey, Timestamp: 9}
	reg, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Traffic terminating in the research network is fine: commA can
	// reach the academic core and its leaf.
	if len(reg.Core.Get(commA, academic)) == 0 {
		t.Error("commercial origin cannot terminate at the academic core")
	}
	if len(reg.Down.Get(0, leaf)) == 0 {
		t.Error("no down segments for the academic leaf")
	}

	// But no core segment connects the two commercial providers through
	// the academic AS, in either construction direction.
	if got := reg.Core.Get(commA, commB); len(got) != 0 {
		t.Errorf("commercial transit advertised: %d segments commA->commB", len(got))
	}
	if got := reg.Core.Get(commB, commA); len(got) != 0 {
		t.Errorf("commercial transit advertised: %d segments commB->commA", len(got))
	}

	// Control: without the Commercial flags, the same topology does
	// advertise the transit path.
	open := topology.New()
	must(open.AddAS(topology.ASInfo{IA: commA, Core: true}))
	must(open.AddAS(topology.ASInfo{IA: commB, Core: true}))
	must(open.AddAS(topology.ASInfo{IA: academic, Core: true}))
	must(open.AddAS(topology.ASInfo{IA: leaf}))
	linkOpen := func(a, b addr.IA, typ topology.LinkType) {
		_, err := open.AddLink(topology.LinkEnd{IA: a}, topology.LinkEnd{IA: b}, typ, 5, "")
		must(err)
	}
	linkOpen(commA, academic, topology.LinkCore)
	linkOpen(academic, commB, topology.LinkCore)
	linkOpen(academic, leaf, topology.LinkParent)
	r2 := &Runner{Topo: open, Keys: rkey, Timestamp: 9}
	reg2, err := r2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reg2.Core.Get(commA, commB)) == 0 {
		t.Error("control topology should advertise the transit path")
	}
}
