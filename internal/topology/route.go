package topology

import (
	"container/heap"
	"math"
	"sync"

	"sciera/internal/addr"
)

// Route is a path through the topology at link granularity.
type Route struct {
	Src, Dst  addr.IA
	Links     []*Link
	LatencyMS float64
	Hops      int
}

// item is a priority-queue entry for Dijkstra.
type item struct {
	ia   addr.IA
	cost float64
	idx  int
}

type pq []*item

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].cost < p[j].cost }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i]; p[i].idx, p[j].idx = i, j }
func (p *pq) Push(x interface{}) { it := x.(*item); it.idx = len(*p); *p = append(*p, it) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*p = old[:n-1]
	return it
}

// Weight assigns a cost to traversing a link; returning +Inf excludes it.
type Weight func(l *Link) float64

// LatencyWeight routes by propagation delay.
func LatencyWeight(l *Link) float64 { return l.LatencyMS }

// BGPWeight models BGP's path selection for the IP baseline: BGP
// minimizes AS-path length, not latency, so each hop costs a full unit
// and latency only breaks ties. This is why the IP plane often takes
// geographically longer routes than SCION's latency-optimizing end hosts
// (paper Section 5.4).
func BGPWeight(l *Link) float64 { return 1 + l.LatencyMS/1e6 }

// ShortestRoute runs Dijkstra over the currently-up links under the given
// weight. It returns nil when dst is unreachable.
func (t *Topology) ShortestRoute(src, dst addr.IA, w Weight) *Route {
	if src == dst {
		return &Route{Src: src, Dst: dst}
	}
	prevLink := t.shortestTree(src, dst, w)
	if prevLink[dst] == nil {
		return nil
	}
	// Reconstruct.
	var rev []*Link
	lat := 0.0
	for cur := dst; cur != src; {
		l := prevLink[cur]
		rev = append(rev, l)
		lat += l.LatencyMS
		end, _ := l.Other(cur)
		cur = end.IA
	}
	links := make([]*Link, len(rev))
	for i := range rev {
		links[i] = rev[len(rev)-1-i]
	}
	return &Route{Src: src, Dst: dst, Links: links, LatencyMS: lat, Hops: len(links)}
}

// ShortestTree is ShortestRoute from src to every AS at once: the last
// link of the route to each AS src reaches, so following the links back
// to src spells the route ShortestRoute returns for that pair, ties
// included — the search is the same one, only not stopped at one
// destination, and an AS's link is final once the search reaches it.
func (t *Topology) ShortestTree(src addr.IA, w Weight) map[addr.IA]*Link {
	return t.shortestTree(src, 0, w)
}

// shortestTree runs Dijkstra from src until it reaches stop (the zero
// IA, which no AS has, for never) and returns each discovered AS's
// incoming link; those of the ASes reached so far are final.
func (t *Topology) shortestTree(src, stop addr.IA, w Weight) map[addr.IA]*Link {
	t.mu.RLock()
	defer t.mu.RUnlock()
	dist := map[addr.IA]float64{src: 0}
	prevLink := map[addr.IA]*Link{}
	items := map[addr.IA]*item{}
	q := &pq{}
	heap.Init(q)
	start := &item{ia: src, cost: 0}
	heap.Push(q, start)
	items[src] = start

	for q.Len() > 0 {
		cur := heap.Pop(q).(*item)
		if cur.ia == stop {
			break
		}
		if cur.cost > dist[cur.ia] {
			continue
		}
		for _, l := range t.byIA[cur.ia] {
			if !l.up.Load() {
				continue
			}
			cost := w(l)
			if math.IsInf(cost, 1) {
				continue
			}
			other, _ := l.Other(cur.ia)
			nd := cur.cost + cost
			if d, ok := dist[other.IA]; !ok || nd < d {
				dist[other.IA] = nd
				prevLink[other.IA] = l
				if it, ok := items[other.IA]; ok && it.idx >= 0 && it.idx < q.Len() && (*q)[it.idx] == it {
					it.cost = nd
					heap.Fix(q, it.idx)
				} else {
					it := &item{ia: other.IA, cost: nd}
					heap.Push(q, it)
					items[other.IA] = it
				}
			}
		}
	}
	return prevLink
}

// RTT returns the round-trip time over the route in milliseconds,
// including a small per-hop forwarding cost.
func (r *Route) RTT(perHopMS float64) float64 {
	if r == nil {
		return math.Inf(1)
	}
	return 2 * (r.LatencyMS + float64(r.Hops)*perHopMS)
}

// BGPBaseline is the IP plane's baseline: the round-trip time of the
// BGP-selected route (BGPWeight) between two sites, per-hop forwarding
// cost included. Routes are memoised per ordered pair against the
// topology's link generation, so Dijkstra runs once per pair per
// link-state change however often a pair is asked for. Safe for
// concurrent use.
type BGPBaseline struct {
	topo     *Topology
	perHopMS float64

	mu  sync.Mutex
	gen uint64
	rtt map[[2]addr.IA]float64
}

// NewBGPBaseline returns the baseline over an IP-plane topology.
func NewBGPBaseline(t *Topology, perHopMS float64) *BGPBaseline {
	return &BGPBaseline{topo: t, perHopMS: perHopMS, rtt: make(map[[2]addr.IA]float64)}
}

// RTTms returns the BGP-routed round-trip time from src to dst in
// milliseconds, +Inf when dst is unreachable.
func (b *BGPBaseline) RTTms(src, dst addr.IA) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	// A change that lands after this load and before the Dijkstra
	// below leaves a newer answer filed under the older generation;
	// the next call sees the bump and drops it.
	if gen := b.topo.LinkGeneration(); gen != b.gen {
		b.gen = gen
		clear(b.rtt)
	}
	key := [2]addr.IA{src, dst}
	ms, ok := b.rtt[key]
	if !ok {
		ms = b.topo.ShortestRoute(src, dst, BGPWeight).RTT(b.perHopMS)
		b.rtt[key] = ms
	}
	return ms
}
