// Package topology models inter-domain topologies: ASes, the typed links
// between them (core, parent-child, peering), per-link propagation
// latencies, and link state. It provides the graph substrate shared by
// the SCION control plane (beaconing walks the typed graph), the
// discrete-event simulator (links carry delays), and the BGP-like IP
// baseline the paper compares against.
package topology

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sciera/internal/addr"
)

// LinkType classifies an inter-AS link.
type LinkType int

const (
	// LinkCore connects two core ASes.
	LinkCore LinkType = iota
	// LinkParent is a provider-to-customer link; end A is the parent.
	LinkParent
	// LinkPeer connects two non-core ASes laterally.
	LinkPeer
)

func (t LinkType) String() string {
	switch t {
	case LinkCore:
		return "core"
	case LinkParent:
		return "parent"
	case LinkPeer:
		return "peer"
	default:
		return fmt.Sprintf("linktype(%d)", int(t))
	}
}

// LinkEnd identifies one end of a link: an AS and its interface ID.
type LinkEnd struct {
	IA   addr.IA
	IfID uint16
}

func (e LinkEnd) String() string { return fmt.Sprintf("%s#%d", e.IA, e.IfID) }

// Link is an inter-AS link. For LinkParent, A is the parent (provider).
type Link struct {
	ID        int
	A, B      LinkEnd
	Type      LinkType
	LatencyMS float64
	// BandwidthMbps caps the circuit's throughput in the simulator
	// (0 = unconstrained). Packets queue behind each other per
	// direction, so multipath senders aggregate capacity across
	// parallel circuits — the Science-DMZ property of Section 4.7.1.
	BandwidthMbps float64
	// Name optionally labels the physical circuit (e.g. "CAE-1").
	Name string

	// up is atomic so the data plane's per-packet latency model can
	// read link state without contending on the topology lock.
	up atomic.Bool
}

// Up reports link state lock-free.
func (l *Link) Up() bool { return l.up.Load() }

// SetBandwidth sets the link's capacity (Mbit/s; 0 = unconstrained).
func (l *Link) SetBandwidth(mbps float64) { l.BandwidthMbps = mbps }

// Other returns the far end as seen from ia.
func (l *Link) Other(ia addr.IA) (LinkEnd, bool) {
	switch ia {
	case l.A.IA:
		return l.B, true
	case l.B.IA:
		return l.A, true
	default:
		return LinkEnd{}, false
	}
}

// Local returns the near end for ia.
func (l *Link) Local(ia addr.IA) (LinkEnd, bool) {
	switch ia {
	case l.A.IA:
		return l.A, true
	case l.B.IA:
		return l.B, true
	default:
		return LinkEnd{}, false
	}
}

// ASInfo describes one AS.
type ASInfo struct {
	IA   addr.IA
	Core bool
	MTU  uint16
	// Name is the human-readable deployment name ("GEANT", "UFMS", ...).
	Name string
	// Lat and Lon locate the AS's PoP for latency derivation.
	Lat, Lon float64
	// Commercial marks commercial providers. Research networks must
	// not carry transit between commercial parties (Section 4.9), so
	// beaconing refuses to extend a commercially-originated beacon
	// toward another commercial AS.
	Commercial bool
}

// Topology is a mutable AS-level topology. All methods are safe for
// concurrent use.
type Topology struct {
	mu     sync.RWMutex
	ases   map[addr.IA]*ASInfo
	links  []*Link
	byIA   map[addr.IA][]*Link
	byIf   map[LinkEnd]*Link
	nextIf map[addr.IA]uint16
	// linkGen counts link-state changes: AddLink and every SetLinkUp
	// that flips a link bump it, so anything derived from the up-link
	// graph (BGPBaseline's routes) can tell when it went stale.
	linkGen atomic.Uint64
}

// New creates an empty topology.
func New() *Topology {
	return &Topology{
		ases:   make(map[addr.IA]*ASInfo),
		byIA:   make(map[addr.IA][]*Link),
		byIf:   make(map[LinkEnd]*Link),
		nextIf: make(map[addr.IA]uint16),
	}
}

// Errors.
var (
	ErrUnknownAS   = errors.New("topology: unknown AS")
	ErrDupAS       = errors.New("topology: AS already present")
	ErrBadLink     = errors.New("topology: invalid link")
	ErrIfInUse     = errors.New("topology: interface already in use")
	ErrUnknownLink = errors.New("topology: unknown link")
)

// AddAS registers an AS.
func (t *Topology) AddAS(info ASInfo) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.ases[info.IA]; ok {
		return fmt.Errorf("%w: %v", ErrDupAS, info.IA)
	}
	if info.MTU == 0 {
		info.MTU = 1472
	}
	cp := info
	t.ases[info.IA] = &cp
	t.nextIf[info.IA] = 1
	return nil
}

// AS returns the AS info.
func (t *Topology) AS(ia addr.IA) (ASInfo, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	a, ok := t.ases[ia]
	if !ok {
		return ASInfo{}, false
	}
	return *a, true
}

// ASes returns all ASes sorted by IA.
func (t *Topology) ASes() []ASInfo {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]ASInfo, 0, len(t.ases))
	for _, a := range t.ases {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IA < out[j].IA })
	return out
}

// AddLink connects two ASes. Interface IDs of 0 are auto-assigned. For
// LinkParent, a is the parent end. The link starts up.
func (t *Topology) AddLink(a, b LinkEnd, typ LinkType, latencyMS float64, name string) (*Link, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	asA, okA := t.ases[a.IA]
	asB, okB := t.ases[b.IA]
	if !okA {
		return nil, fmt.Errorf("%w: %v", ErrUnknownAS, a.IA)
	}
	if !okB {
		return nil, fmt.Errorf("%w: %v", ErrUnknownAS, b.IA)
	}
	if a.IA == b.IA {
		return nil, fmt.Errorf("%w: self-link at %v", ErrBadLink, a.IA)
	}
	switch typ {
	case LinkCore:
		if !asA.Core || !asB.Core {
			return nil, fmt.Errorf("%w: core link requires two core ASes (%v-%v)", ErrBadLink, a.IA, b.IA)
		}
	case LinkParent:
		// Parent end must be able to offer transit; no structural
		// requirement beyond distinct ASes.
	case LinkPeer:
	default:
		return nil, fmt.Errorf("%w: type %d", ErrBadLink, typ)
	}
	if a.IfID == 0 {
		a.IfID = t.allocIfLocked(a.IA)
	}
	if b.IfID == 0 {
		b.IfID = t.allocIfLocked(b.IA)
	}
	if _, used := t.byIf[a]; used {
		return nil, fmt.Errorf("%w: %v", ErrIfInUse, a)
	}
	if _, used := t.byIf[b]; used {
		return nil, fmt.Errorf("%w: %v", ErrIfInUse, b)
	}
	l := &Link{
		ID:        len(t.links),
		A:         a,
		B:         b,
		Type:      typ,
		LatencyMS: latencyMS,
		Name:      name,
	}
	l.up.Store(true)
	t.links = append(t.links, l)
	t.byIA[a.IA] = append(t.byIA[a.IA], l)
	t.byIA[b.IA] = append(t.byIA[b.IA], l)
	t.byIf[a] = l
	t.byIf[b] = l
	t.linkGen.Add(1)
	return l, nil
}

func (t *Topology) allocIfLocked(ia addr.IA) uint16 {
	for {
		id := t.nextIf[ia]
		t.nextIf[ia] = id + 1
		if _, used := t.byIf[LinkEnd{IA: ia, IfID: id}]; !used && id != 0 {
			return id
		}
	}
}

// Links returns a snapshot of all links.
func (t *Topology) Links() []*Link {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]*Link(nil), t.links...)
}

// LinksOf returns the links attached to an AS.
func (t *Topology) LinksOf(ia addr.IA) []*Link {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]*Link(nil), t.byIA[ia]...)
}

// LinkIDByName resolves a circuit by its name (incident calendars and
// orchestration scripts address links by name, not ID).
func (t *Topology) LinkIDByName(name string) (int, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, l := range t.links {
		if l.Name == name {
			return l.ID, true
		}
	}
	return 0, false
}

// LinkAt resolves an AS-local interface to its link.
func (t *Topology) LinkAt(end LinkEnd) (*Link, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	l, ok := t.byIf[end]
	return l, ok
}

// SetLinkUp flips link state; the data plane drops packets on down links
// and the control plane stops propagating beacons across them.
func (t *Topology) SetLinkUp(id int, up bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || id >= len(t.links) {
		return fmt.Errorf("%w: %d", ErrUnknownLink, id)
	}
	if t.links[id].up.Swap(up) != up {
		t.linkGen.Add(1)
	}
	return nil
}

// LinkGeneration returns a counter that changes whenever the set of up
// links does.
func (t *Topology) LinkGeneration() uint64 { return t.linkGen.Load() }

// LinkUp reports link state.
func (t *Topology) LinkUp(id int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id < 0 || id >= len(t.links) {
		return false
	}
	return t.links[id].up.Load()
}

// Parents returns the parent->child links where ia is the child.
func (t *Topology) Parents(ia addr.IA) []*Link {
	var out []*Link
	for _, l := range t.LinksOf(ia) {
		if l.Type == LinkParent && l.B.IA == ia {
			out = append(out, l)
		}
	}
	return out
}

// Validate performs structural sanity checks: every parent relation must
// be acyclic and every non-core AS must have a path of parent links up to
// a core AS (otherwise it can never learn segments).
func (t *Topology) Validate() error {
	t.mu.RLock()
	defer t.mu.RUnlock()

	children := make(map[addr.IA][]addr.IA)
	for _, l := range t.links {
		if l.Type == LinkParent {
			children[l.A.IA] = append(children[l.A.IA], l.B.IA)
		}
	}
	if parent, child, ok := ParentCycle(children); ok {
		return fmt.Errorf("topology: parent cycle through %v and %v", parent, child)
	}

	// Reachability: BFS down from cores along parent links.
	reached := make(map[addr.IA]bool)
	var queue []addr.IA
	for ia, a := range t.ases {
		if a.Core {
			reached[ia] = true
			queue = append(queue, ia)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, child := range children[cur] {
			if !reached[child] {
				reached[child] = true
				queue = append(queue, child)
			}
		}
	}
	for ia := range t.ases {
		if !reached[ia] {
			return fmt.Errorf("topology: %v unreachable from any core AS via parent links", ia)
		}
	}
	return nil
}

// ParentCycle looks for a cycle in a parent graph given as each AS's
// children, and reports one parent link on it. It is the one rule both
// Validate and the scenario loader hold parent links to: beacons flow
// down them, and a cycle has no top to start from.
func ParentCycle(children map[addr.IA][]addr.IA) (parent, child addr.IA, found bool) {
	const (
		white = iota // not visited
		gray         // on the current DFS path
		black        // done, no cycle below
	)
	color := make(map[addr.IA]int, len(children))
	var visit func(ia addr.IA) bool
	visit = func(ia addr.IA) bool {
		color[ia] = gray
		for _, c := range children[ia] {
			if color[c] == gray || (color[c] == white && visit(c)) {
				if !found {
					parent, child, found = ia, c, true
				}
				return true
			}
		}
		color[ia] = black
		return false
	}
	// In IA order, so the link reported does not depend on map order.
	roots := make([]addr.IA, 0, len(children))
	for ia := range children {
		roots = append(roots, ia)
	}
	slices.Sort(roots)
	for _, ia := range roots {
		if color[ia] == white && visit(ia) {
			break
		}
	}
	return parent, child, found
}
