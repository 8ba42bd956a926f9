package experiments

import (
	"math/rand"
	"slices"
	"testing"

	"sciera/internal/scenario"
	"sciera/internal/topology"
)

// TestFigure10cMatchesPerPairSearches pins what Figure10c reads off one
// shortest-path tree per source and one component labelling per step to
// the loop it replaced — one ShortestRoute per pair, and after every
// removal step one reachability search per pair on a topology whose
// links were actually set down — on the SCIERA deployment and on the
// generated 200-AS scenario (there at four of the eleven steps: the
// per-pair searches are what made the figure 87 s).
func TestFigure10cMatchesPerPairSearches(t *testing.T) {
	// connected is Topology.Connected as Figure10c called it.
	connected := func(topo *topology.Topology, a, b topology.ASInfo) bool {
		return topo.ShortestRoute(a.IA, b.IA, func(*topology.Link) float64 { return 1 }) != nil
	}
	for _, tc := range []struct {
		spec  string
		steps []int
	}{
		{"sciera", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
		{"gen:seed=1", []int{0, 1, 4, 8}},
	} {
		scn, err := scenario.Resolve(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := scn.Build()
		if err != nil {
			t.Fatal(err)
		}
		ases, links := topo.ASes(), topo.Links()

		got, next := singlePaths(topo), 0
		for i, a := range ases {
			for _, b := range ases[i+1:] {
				r := topo.ShortestRoute(a.IA, b.IA, topology.LatencyWeight)
				if r == nil {
					continue
				}
				var want []int
				for _, l := range r.Links {
					want = append(want, l.ID)
				}
				slices.Reverse(want) // the tree is walked from b back to a
				if next == len(got) || !slices.Equal(got[next], want) {
					t.Fatalf("%s %v->%v: single path from the tree differs from ShortestRoute's %v", tc.spec, a.IA, b.IA, want)
				}
				next++
			}
		}
		if next == 0 || next != len(got) {
			t.Fatalf("%s: %d single paths from the trees, %d pairs have a route", tc.spec, len(got), next)
		}

		perm := rand.New(rand.NewSource(3)).Perm(len(links))
		removed := make([]bool, len(links))
		gone := 0
		for _, step := range tc.steps {
			for ; gone < step*len(links)/10; gone++ {
				removed[perm[gone]] = true
				if err := topo.SetLinkUp(perm[gone], false); err != nil {
					t.Fatal(err)
				}
			}
			want := 0
			for i, a := range ases {
				for _, b := range ases[i+1:] {
					if connected(topo, a, b) {
						want++
					}
				}
			}
			// Once with the links named removed on an intact topology, as
			// Figure10c has them, and once reading their state.
			intact, err := scn.Build()
			if err != nil {
				t.Fatal(err)
			}
			if got := connectedPairs(intact.Links(), removed); got != want {
				t.Fatalf("%s step %d: %d connected pairs by components, %d by per-pair search", tc.spec, step, got, want)
			}
			if got := connectedPairs(links, make([]bool, len(links))); got != want {
				t.Fatalf("%s step %d: %d connected pairs with the links set down, %d by per-pair search", tc.spec, step, got, want)
			}
		}
	}
}
