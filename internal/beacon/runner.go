package beacon

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sync"
	"time"

	"sciera/internal/addr"
	"sciera/internal/cppki"
	"sciera/internal/pathdb"
	"sciera/internal/scrypto"
	"sciera/internal/segment"
	"sciera/internal/telemetry"
	"sciera/internal/topology"
)

// RunnerMetrics counts beaconing outcomes. A control-plane refresh
// reuses the same cells, so the counters accumulate across rounds as a
// periodically-beaconing deployment's would.
type RunnerMetrics struct {
	// Originated counts PCBs created at core ASes.
	Originated telemetry.Counter
	// Propagated counts beacon extensions sent onward to a neighbor:
	// candidates put in flight, whether or not the receiver's store then
	// admits them (only admitted ones are ever built).
	Propagated telemetry.Counter
	// Filtered counts candidate extensions suppressed by policy: loop
	// avoidance, the no-commercial-transit rule, down links, and
	// beacon-store rejections.
	Filtered telemetry.Counter
	// Pruned counts accepted beacons suppressed from re-propagation by
	// the best-K selection bound (they stay registrable locally).
	Pruned telemetry.Counter
	// Registered counts beacons terminated into registered segments.
	Registered telemetry.Counter
	// Verified counts freshly built beacons whose signatures verified on
	// receipt (verify-on-receipt runs only when the runner has TRCs).
	// Only a beacon its receiving store admits is built at all, and one
	// the previous run kept carries that run's verdict: under the PKI a
	// warm run's count is at most a cold run's, while the five flood
	// counters above are equal.
	Verified telemetry.Counter
	// VerifyFailed counts received beacons dropped because signature
	// verification failed; never kept, they are built and fail every run.
	VerifyFailed telemetry.Counter
	// VerifyLatency optionally records per-beacon verification wall time
	// in milliseconds, one observation per Verified + VerifyFailed; nil
	// disables the measurement.
	VerifyLatency *telemetry.Histogram
	// Built counts beacons and terminated segments constructed, Reused
	// those taken as the previous run left them; a cold run reuses none.
	Built, Reused telemetry.Counter
	// Redecided counts candidates put to admission: on a cold run every
	// flight (Originated + Propagated), on a refresh only those of groups
	// it could not replay.
	Redecided telemetry.Counter
}

// counters is the one declaration of the runner's counters: the metric
// name and help each cell is exposed under. Register, Counters and
// Restore walk it, so a counter added here is scraped, captured into
// snapshots and restored from them with no further edit.
var counters = []struct {
	name, help string
	cell       func(*RunnerMetrics) *telemetry.Counter
}{
	{"sciera_beacon_originated_total", "PCBs originated at core ASes",
		func(m *RunnerMetrics) *telemetry.Counter { return &m.Originated }},
	{"sciera_beacon_propagated_total", "beacon extensions propagated to neighbors",
		func(m *RunnerMetrics) *telemetry.Counter { return &m.Propagated }},
	{"sciera_beacon_filtered_total", "beacon extensions suppressed by policy or store",
		func(m *RunnerMetrics) *telemetry.Counter { return &m.Filtered }},
	{"sciera_beacon_pruned_total", "accepted beacons not re-propagated due to the best-K bound",
		func(m *RunnerMetrics) *telemetry.Counter { return &m.Pruned }},
	{"sciera_beacon_registered_total", "beacons terminated into registered segments",
		func(m *RunnerMetrics) *telemetry.Counter { return &m.Registered }},
	{"sciera_beacon_verified_total", "received beacons whose signatures verified on receipt",
		func(m *RunnerMetrics) *telemetry.Counter { return &m.Verified }},
	{"sciera_beacon_verify_failed_total", "received beacons dropped on signature verification failure",
		func(m *RunnerMetrics) *telemetry.Counter { return &m.VerifyFailed }},
	{"sciera_beacon_built_total", "beacons and terminated segments constructed by a run",
		func(m *RunnerMetrics) *telemetry.Counter { return &m.Built }},
	{"sciera_beacon_reused_total", "beacons and terminated segments kept from the previous run",
		func(m *RunnerMetrics) *telemetry.Counter { return &m.Reused }},
	{"sciera_beacon_redecided_total", "beacon candidates put to admission rather than replayed from the previous run",
		func(m *RunnerMetrics) *telemetry.Counter { return &m.Redecided }},
}

// Register adopts the cells into a registry.
func (m *RunnerMetrics) Register(reg *telemetry.Registry) {
	for _, c := range counters {
		reg.RegisterCounter(c.name, c.help, c.cell(m))
	}
	if m.VerifyLatency != nil {
		reg.RegisterHistogram("sciera_beacon_verify_latency_ms", "per-beacon signature verification wall time (ms)", m.VerifyLatency)
	}
}

// Counters returns every counter's value by metric name: what a
// converged-state snapshot carries.
func (m *RunnerMetrics) Counters() map[string]uint64 {
	out := make(map[string]uint64, len(counters))
	for _, c := range counters {
		out[c.name] = c.cell(m).Load()
	}
	return out
}

// Restore adds values captured by Counters to the cells, so fresh
// metrics report what the captured ones did. A name that is no counter
// of the runner restores nothing.
func (m *RunnerMetrics) Restore(values map[string]uint64) {
	for _, c := range counters {
		c.cell(m).Add(values[c.name])
	}
}

// KeyProvider resolves an AS's hop-field key. In the real deployment
// each AS only knows its own key; the runner is a whole-network driver,
// so it gets a resolver.
type KeyProvider func(ia addr.IA) scrypto.HopKey

// SignerProvider resolves the AS's control-plane signer; returning nil
// disables signing (simulation-scale campaigns skip the per-entry ECDSA
// cost, the live network signs everything).
type SignerProvider func(ia addr.IA) *cppki.Signer

// Runner executes deterministic synchronous beaconing rounds over a
// topology, producing the segment registries the path lookup
// infrastructure serves. The control service drives the same logic over
// real messages; the runner is used at network bring-up and by the
// discrete-event campaigns, where re-running it after every topology
// change recomputes the control-plane state (as the periodic PCB
// origination interval would).
type Runner struct {
	Topo    *topology.Topology
	Keys    KeyProvider
	Signers SignerProvider // optional
	// Timestamp stamps originated segments (Unix seconds).
	Timestamp uint32
	// BestPerOrigin bounds beacon stores (DefaultBestPerOrigin if 0).
	BestPerOrigin int
	// PropagateBestK bounds how many same-origin beacons one AS
	// re-propagates per round, selected by SelectBestK
	// (DefaultPropagateBestK if 0, unbounded if negative). Accepted
	// beacons beyond the bound stay in the store — registrable, just not
	// flooded onward.
	PropagateBestK int
	// Metrics receives beaconing counters; nil allocates private ones.
	Metrics *RunnerMetrics
	// TRCs enables verify-on-receipt: when set (alongside Signers), a
	// received beacon's entry signatures are verified against the ISD TRC
	// before it enters a beacon store, and unverifiable beacons are
	// dropped. Matches the deployment, where an AS never extends a
	// beacon it cannot verify.
	TRCs *cppki.Store
	// Chains optionally memoizes verified certificate chains across
	// receipts (shared with other runners/refreshes for a warm cache).
	Chains *cppki.ChainCache
	// VerifyAt is the PKI validity instant for verification; zero means
	// the segment origination timestamp.
	VerifyAt time.Time

	// verifier is built per Run when verify-on-receipt is enabled.
	verifier *segment.Verifier
	// view is the topology as this Run reads it, taken once.
	view map[addr.IA]*asView
	// prev is what the previous run kept (empty on a cold run), only
	// read; next is what this run uses, left on its registry.
	prev, next *kept
}

// hopExpTime is the relative expiry every hop field is issued with
// (63 ≈ 6h).
const hopExpTime = 63

// asView is what a run reads of one AS. Run takes it from the topology
// once — one pass over the AS and link lists — so the flood itself never
// takes the topology lock, and a link flapping mid-run cannot show two
// states to one run.
type asView struct {
	core, commercial bool
	mtu              uint16
	key              scrypto.HopKey
	signer           *cppki.Signer // nil when the run does not sign
	// coreLinks and childLinks are the AS's up core links and up links
	// to its children, in topology link order. downChildren counts the
	// child links that are down: a beacon that would cross one is
	// Filtered.
	coreLinks, childLinks []*topology.Link
	downChildren          uint64
	// peers are the peer entries the AS advertises over its up peering
	// links, complete but for the MAC, which depends on the beacon.
	peers []segment.PeerEntry
	// mac is the AS's prepared hop-key CMAC: every hop and peer MAC it
	// computes during the run reuses the key schedule.
	mac *scrypto.CMAC
}

// snapshot reads the topology into r.view.
func (r *Runner) snapshot() error {
	ases := r.Topo.ASes()
	r.view = make(map[addr.IA]*asView, len(ases))
	for _, as := range ases {
		v := &asView{core: as.Core, commercial: as.Commercial, mtu: as.MTU, key: r.Keys(as.IA)}
		var err error
		if v.mac, err = scrypto.NewHopCMAC(v.key); err != nil {
			return err
		}
		if r.Signers != nil {
			v.signer = r.Signers(as.IA)
		}
		r.view[as.IA] = v
	}
	for _, l := range r.Topo.Links() {
		a, b := r.view[l.A.IA], r.view[l.B.IA]
		switch {
		case l.Type == topology.LinkParent && !l.Up():
			a.downChildren++
		case !l.Up():
		case l.Type == topology.LinkParent:
			a.childLinks = append(a.childLinks, l)
		case l.Type == topology.LinkCore:
			a.coreLinks = append(a.coreLinks, l)
			b.coreLinks = append(b.coreLinks, l)
		case l.Type == topology.LinkPeer:
			a.peers = append(a.peers, peerEntry(l.A, l.B, l.LatencyMS))
			b.peers = append(b.peers, peerEntry(l.B, l.A, l.LatencyMS))
		}
	}
	return nil
}

func peerEntry(local, remote topology.LinkEnd, latencyMS float64) segment.PeerEntry {
	return segment.PeerEntry{Peer: remote.IA, PeerIf: remote.IfID, LocalIf: local.IfID,
		LinkLatencyMS: latencyMS, ExpTime: hopExpTime}
}

// flight is one beacon crossing one link. Origination resolves its beacon
// outright; every later flight is a candidate: the beacon as the sender
// stores it plus the entry the sender would append, which is only built
// once the receiver's store admits it.
type flight struct {
	// seg is the originated beacon when from is zero, otherwise the
	// parent beacon, which from received on interface inIf and would
	// extend over l.
	seg  *segment.Segment
	from addr.IA
	l    *topology.Link
	to   *receiver
	// length and route are the AS-hop length and route ID of the beacon
	// the receiver would store. The route is known at origination,
	// otherwise hashed once the receiver's store admits the length, and
	// carried into the stored Entry.
	length       int
	route        string
	inIf, recvIf uint16
	// fresh marks an originated beacon built by this run, which no one
	// has verified yet.
	fresh bool
}

// Registry holds the outcome of a beaconing run: the segment databases
// that the path-lookup infrastructure serves.
type Registry struct {
	// Core holds core segments (origin core → terminating core),
	// queryable at any core control service.
	Core *pathdb.DB
	// Down holds the segments non-core ASes terminated (origin core →
	// AS). The paper has an AS register each twice, at the core path
	// servers as a down segment and locally as an up segment; in this
	// whole-network driver the second store could never differ from the
	// first, so an AS's up segments are this store read by last AS (Ups).
	Down *pathdb.DB

	// memo holds the combinations Paths has resolved (lookup.go); the
	// zero value is an empty memo.
	memoMu sync.Mutex
	memo   map[[2]addr.IA]memoEntry

	// kept is what the registry's run built or reused, read by the run
	// that starts from it (RunFrom) and shared, never written, by its
	// clones. Nil on a registry assembled from a file.
	kept *kept
}

// kept is what one run leaves for the next, which reuses a part of it
// only by the identity of what it was made from. A beacon is a function
// of its timestamp and route once each AS's hop key (beta0, every MAC),
// MTU, signer and advertised peer entries are fixed. kept records those
// beside the beacons, so the next run can tell whether they stand.
type kept struct {
	view map[addr.IA]*asView
	// trcs (each ISD's TRC; an update replaces the pointer) and verifyAt
	// are what the beacons were verified against; nil and zero if none.
	trcs     map[addr.ISD]*cppki.TRC
	verifyAt time.Time
	// groups holds what the flood decided, by group: its round-0 records
	// hold the originated beacons, where the next run's origination looks
	// (originate), and the rest are where the rest of its flood looks
	// (receive). terms holds every segment the run registered, by the
	// stored beacon it terminates.
	terms  map[*segment.Segment]term
	groups map[groupID]group
	// best and propK are the bounds the run's stores and selection
	// applied.
	best, propK int
}

// term is a registered segment with the ID it is filed under.
type term struct {
	id  string
	seg *segment.Segment
}

// holds reports whether what k's run built and decided is what r's
// would for the same beacons and candidates: same verification and
// bounds, and no AS of r's view differing from k's in what a beacon's
// bytes carry or what the flood asks of it. Link state is not among
// that; an AS k never saw is on none of its routes. Neither is the
// timestamp: a beacon carries its own, and origination reuses only one
// that carries the run's.
func (k *kept) holds(r *Runner, trcs map[addr.ISD]*cppki.TRC, verifyAt time.Time) bool {
	if k == nil || !k.verifyAt.Equal(verifyAt) || !maps.Equal(k.trcs, trcs) ||
		k.best != r.BestPerOrigin || k.propK != r.propagateK() {
		return false
	}
	for ia, as := range r.view {
		if was, ok := k.view[ia]; ok && (was.key != as.key || was.signer != as.signer ||
			was.mtu != as.mtu || !slices.Equal(was.peers, as.peers) ||
			was.core != as.core || was.commercial != as.commercial) {
			return false
		}
	}
	return true
}

// Run performs core beaconing and intra-ISD (down) beaconing to a fixed
// point and returns the resulting registries.
func (r *Runner) Run() (*Registry, error) { return r.RunFrom(nil) }

// RunFrom is Run for a network whose last run left prev (nil for none).
// The result — registries, flights, order, admissions and counters — is
// Run's, but the flood decides again only the groups whose candidates
// moved since prev's run and replays the rest (flood), and it builds
// only the beacons and segments prev's run did not: the rest are taken
// as that run left them, MACs, signatures and verification verdict
// included. Each store of the result is prev's own when the run
// registered the same segments there, otherwise synced from it by
// difference, and its path memo starts with prev's entries (Paths);
// prev is never modified. When more than link state and the timestamp
// moved since prev's run (kept.holds), the run starts from empty stores
// and nothing kept: that is Run.
func (r *Runner) RunFrom(prev *Registry) (*Registry, error) {
	if r.Topo == nil || r.Keys == nil {
		return nil, fmt.Errorf("beacon: Runner requires a Topo and Keys")
	}
	if err := r.snapshot(); err != nil {
		return nil, err
	}
	if r.Metrics == nil {
		r.Metrics = &RunnerMetrics{}
	}
	var (
		verifyAt time.Time
		trcs     map[addr.ISD]*cppki.TRC
	)
	if r.TRCs != nil {
		verifyAt = r.VerifyAt
		if verifyAt.IsZero() {
			verifyAt = time.Unix(int64(r.Timestamp), 0)
		}
		r.verifier = &segment.Verifier{TRCs: r.TRCs, Chains: r.Chains, At: verifyAt}
		trcs = make(map[addr.ISD]*cppki.TRC)
		for _, isd := range r.TRCs.ISDs() {
			trcs[isd], _ = r.TRCs.Get(isd)
		}
	}
	reg := &Registry{}
	if prev != nil {
		reg.carryMemo(prev)
	}
	if prev == nil || !prev.kept.holds(r, trcs, verifyAt) {
		prev = &Registry{Core: pathdb.New(), Down: pathdb.New(), kept: &kept{}}
	}
	r.prev = prev.kept
	r.next = &kept{trcs: trcs, verifyAt: verifyAt, view: r.view,
		best: r.BestPerOrigin, propK: r.propagateK(),
		terms:  make(map[*segment.Segment]term, len(r.prev.terms)),
		groups: make(map[groupID]group, len(r.prev.groups))}
	reg.kept = r.next
	if err := r.runCore(reg, prev); err != nil {
		return nil, err
	}
	if err := r.runDown(reg, prev); err != nil {
		return nil, err
	}
	return reg, nil
}

// file returns the store holding exactly terms: prev itself or a clone
// synced by difference (pathdb.Synced).
func file(prev *pathdb.DB, terms []term) *pathdb.DB {
	want := make(map[string]*segment.Segment, len(terms))
	for _, t := range terms {
		want[t.id] = t.seg
	}
	return prev.Synced(want)
}

// runCore floods core PCBs across the core mesh. Every core AS
// accumulates beacons from every other core origin; terminating a beacon
// registers a core segment origin→self.
func (r *Runner) runCore(reg, prev *Registry) error {
	terms, err := r.flood(true,
		func(as *asView) ([]*topology.Link, uint64) { return as.coreLinks, 0 },
		// No-commercial-transit policy (Section 4.9): a beacon originated
		// by a commercial provider may terminate at another commercial
		// provider, but the academic network never advertises paths that
		// would carry commercial-to-commercial transit. Such a beacon is
		// registrable where it is but not extended further toward
		// commercial peers.
		func(origin, next *asView) bool { return origin.commercial && next.commercial })
	reg.Core = file(prev.Core, terms)
	return err
}

// runDown floods intra-ISD PCBs from core ASes down parent links. What
// every non-core AS terminates is registered once, in Down.
func (r *Runner) runDown(reg, prev *Registry) error {
	terms, err := r.flood(false,
		func(as *asView) ([]*topology.Link, uint64) { return as.childLinks, as.downChildren },
		func(origin, next *asView) bool { return false })
	reg.Down = file(prev.Down, terms)
	return err
}

// admits asks the flight's store, as it stands, whether it would keep
// the candidate (Store.Admits, minus the lock: no one else has the run's
// stores). One refused by its length alone never has its route hashed.
func admits(store *Store, f *flight) bool {
	origin := f.seg.FirstIA()
	if !store.lengthAdmits(store.byOrigin[origin], f.length) {
		return false
	}
	if f.route == "" {
		out, _ := f.l.Local(f.from)
		f.route = f.seg.ExtendedRouteID(f.from, f.inIf, out.IfID)
	}
	_, ok := store.admitLocked(origin, f.length, f.route)
	return ok
}

// groupID names one group of a flood: the candidates of one origin that
// reach one receiver in one round (also one best-K selection group).
type groupID struct {
	groupKey
	round int
}

// group is what a run decided for one group. A decision reads the
// candidates and the receiver's store list for their origin, nothing
// else, so the next run, meeting the same candidates at the same list,
// decides the same and replays this.
type group struct {
	// prev is the round of the (origin, receiver)'s previous group in the
	// run that recorded this one, -1 if none: the list stands as it stood
	// only if the groups before it do.
	prev int
	// in is the candidates in flight order, with what became of each;
	// list, the store list for the origin after the round.
	in                       []input
	list                     []*Entry
	filtered, pruned, failed uint64
	// propagated and extFiltered count what extending the survivors sent
	// and filtered: replayed, with each input's over, while the
	// receiver's out links are those of the run that recorded them.
	propagated, extFiltered uint64
}

// input is one candidate: the beacon the sender stores (the originated
// one in round 0) and the ID of the link it crosses — a kept beacon is
// the same *Segment in every run, so candidates compare by pointer —
// then the entry the store admitted (Seg nil: refused, or failed
// verification; Route the candidate's route, if hashed), whether best-K
// kept it from going on and, for a survivor, the out links it went over
// (bit k: the receiver's links[k]). The entries of a group are stored in
// its inputs: one allocation per group decided.
type input struct {
	seg    *segment.Segment
	link   int32
	pruned bool
	over   uint64
	entry  Entry
}

func (in *input) is(f *flight) bool { return in.seg == f.seg && int(in.link) == f.l.ID }

// stored returns the entry the store admitted, or nil.
func (in *input) stored() *Entry {
	if in.entry.Seg == nil {
		return nil
	}
	return &in.entry
}

// receiver is one AS's side of a flood: its store, and where the flood
// of the current origin stands there.
type receiver struct {
	ia    addr.IA
	as    *asView
	store *Store
	// links and down are what out gives the AS, dests the receivers at
	// the far end of links; moved, whether links or down differ from
	// the previous run's (or links are more than an input's over holds).
	links []*topology.Link
	dests []*receiver
	down  uint64
	moved bool
	// last is the round of the origin's last group here (-1: none),
	// dirty whether the list differs from the previous run's after it;
	// in lists the round's flights
	// to here, g is their group, and replay says its survivors go over
	// the links recorded.
	last   int
	dirty  bool
	in     []int
	g      group
	replay bool
}

// send appends the flight of e over rc's k-th out link.
func (rc *receiver) send(next []flight, e *Entry, k int) []flight {
	l := rc.links[k]
	other, _ := l.Other(rc.ia)
	return append(next, flight{seg: e.Seg, from: rc.ia, inIf: e.RecvIf, l: l,
		to: rc.dests[k], recvIf: other.IfID, length: e.Seg.Len() + 1})
}

// flood runs one beaconing process to its fixed point: every core AS
// originates over the links out gives it, the core (or, for intra-ISD
// beaconing, the non-core) ASes receive, and each round every receiver
// admits, selects and re-propagates over its own out links, except
// toward an AS already on the path or one refuse rules out for the
// beacon's origin. out also says how many of the AS's links of that kind
// are down; a beacon that would cross one counts as Filtered. What the
// stores hold at the end is terminated and returned — a registry is
// loaded, not inserted into.
//
// Nothing one origin's beacons meet depends on another origin's, so the
// flood runs origin by origin. A round's flights are in the order of
// their key, the link IDs along the route (origination and every
// survivor send over their links in link-ID order, survivors in flight
// order), and each (origin, receiver, round) group is replayed or
// decided in that order (receive): a store admits by length, then by
// route, and only then is the extension built or found in r.prev. The
// counters and every registry are those of a flood that builds each
// candidate at the sender (the eagerRun oracle in the tests).
func (r *Runner) flood(core bool,
	out func(*asView) (up []*topology.Link, down uint64),
	refuse func(origin, next *asView) bool) ([]term, error) {
	rx := make(map[addr.IA]*receiver)
	var (
		rcs     []*receiver
		origins []addr.IA
	)
	for ia, as := range r.view {
		if as.core == core {
			rc := &receiver{ia: ia, as: as, store: NewStore(r.BestPerOrigin), moved: true}
			rc.links, rc.down = out(as)
			if was, ok := r.prev.view[ia]; ok && len(rc.links) <= 64 {
				links, down := out(was)
				rc.moved = down != rc.down || !slices.Equal(links, rc.links)
			}
			rx[ia] = rc
			rcs = append(rcs, rc)
		}
		if as.core {
			origins = append(origins, ia)
		}
	}
	slices.Sort(origins)
	for _, rc := range rcs {
		rc.dests = make([]*receiver, len(rc.links))
		for k, l := range rc.links {
			other, _ := l.Other(rc.ia)
			rc.dests[k] = rx[other.IA]
		}
	}

	// flights and next swap every round and the rest is reused: a round
	// runs to thousands of candidates, and allocating them anew was most
	// of what a warm run allocated.
	var (
		flights, next []flight
		sent          []*input
		touched       []*receiver
	)
	for _, origin := range origins {
		for _, rc := range rcs {
			rc.last, rc.dirty = -1, false
		}
		ov := r.view[origin]
		links, down := out(ov)
		r.Metrics.Filtered.Add(down)
		flights = flights[:0]
		for _, l := range links {
			f, err := r.originate(origin, l)
			if err != nil {
				return nil, err
			}
			r.Metrics.Originated.Inc()
			other, _ := l.Other(origin)
			f.to = rx[other.IA]
			flights = append(flights, f)
		}
		// A beacon never revisits an AS, so #ASes rounds drain every
		// flight; the bound is what the loop is allowed, not what it needs.
		for round := 0; round < len(r.view)+2 && len(flights) > 0; round++ {
			touched = touched[:0]
			for i := range flights {
				rc := flights[i].to
				if len(rc.in) == 0 {
					touched = append(touched, rc)
				}
				rc.in = append(rc.in, i)
			}
			sent = append(sent[:0], make([]*input, len(flights))...)
			for _, rc := range touched {
				if err := r.receive(groupID{groupKey{rc.ia, origin}, round}, rc, flights, sent); err != nil {
					return nil, err
				}
			}
			// Extension: the survivors go out over every other eligible
			// link, in flight order.
			next = next[:0]
			for i, in := range sent {
				if in == nil {
					continue
				}
				rc := flights[i].to
				if rc.replay {
					for over := in.over; over != 0; over &= over - 1 {
						next = rc.send(next, &in.entry, bits.TrailingZeros64(over))
					}
					continue
				}
				in.over = 0
				rc.g.extFiltered += rc.down
				for k, l := range rc.links {
					if l.ID == flights[i].l.ID {
						continue
					}
					if d := rc.dests[k]; in.entry.Seg.ContainsIA(d.ia) || refuse(ov, d.as) {
						rc.g.extFiltered++
						continue
					}
					in.over |= 1 << k // past bit 63 unrecorded: such a receiver never replays
					rc.g.propagated++
					next = rc.send(next, &in.entry, k)
				}
			}
			for _, rc := range touched {
				r.Metrics.Filtered.Add(rc.g.extFiltered)
				r.Metrics.Propagated.Add(rc.g.propagated)
				r.next.groups[groupID{groupKey{rc.ia, origin}, round}] = rc.g
				rc.in, rc.g, rc.replay = rc.in[:0], group{}, false
			}
			flights, next = next, flights
		}
	}

	// Registration: terminate every stored beacon into a segment, unless
	// the previous run did. Stored beacons were verified on receipt (when
	// enabled); the terminating entry is the AS's own, so no re-verify.
	n := 0
	for _, rc := range rcs {
		n += rc.store.Len()
	}
	terms := make([]term, 0, n)
	for _, rc := range rcs {
		for _, es := range rc.store.byOrigin {
			for _, e := range es {
				t, ok := r.prev.terms[e.Seg]
				if ok {
					r.Metrics.Reused.Inc()
				} else {
					seg, err := r.extend(e.Seg, rc.ia, e.RecvIf, nil)
					if err != nil {
						return nil, err
					}
					t = term{id: seg.ID(), seg: seg}
				}
				r.next.terms[e.Seg] = t
				r.Metrics.Registered.Inc()
				terms = append(terms, t)
			}
		}
	}
	return terms, nil
}

// receive decides one group and sets, per flight of it, the entry sent
// on, or nil. A clean group — the previous run recorded the same
// candidates at a list that stood as it stands now, because every
// earlier group of the (origin, receiver) was clean or came out as
// recorded — is replayed: the list, counter deltas and survivors are the
// record's, and its beacons count as Reused. Any other group is decided
// anew and recorded. A group that failed a verification is never clean:
// such a beacon is built, and fails, every run.
func (r *Runner) receive(id groupID, rc *receiver, flights []flight, sent []*input) error {
	g, ok := r.prev.groups[id]
	clean := !rc.dirty && ok && g.prev == rc.last && g.failed == 0 &&
		slices.EqualFunc(g.in, rc.in, func(in input, i int) bool { return in.is(&flights[i]) })
	if clean {
		rc.store.byOrigin[id.origin] = g.list
		if id.round > 0 { // an originated beacon was counted by originate
			for j := range g.in {
				if g.in[j].stored() != nil {
					r.Metrics.Reused.Inc()
				}
			}
		}
		r.Metrics.Filtered.Add(g.filtered)
		r.Metrics.Pruned.Add(g.pruned)
		if rc.moved { // the survivors go over other links: record them anew
			g.in = slices.Clone(g.in)
		}
	} else {
		was := g
		var err error
		if g, err = r.decide(id.origin, rc, flights, was); err != nil {
			return err
		}
		// A decision that leaves the list as the previous run left it
		// here leaves the next group's list standing too.
		rc.dirty = !ok || !slices.EqualFunc(g.list, was.list, func(a, b *Entry) bool { return *a == *b })
	}
	rc.g, rc.replay, rc.last = g, clean && !rc.moved, id.round
	if !rc.replay {
		rc.g.propagated, rc.g.extFiltered = 0, 0
	}
	for j, i := range rc.in {
		if in := &g.in[j]; in.stored() != nil && !in.pruned {
			sent[i] = in
		}
	}
	return nil
}

// decide runs the group of rc's flights candidate by candidate, in flight
// order, and records it. A candidate the previous run met in the group
// (was, its record, if any) comes with its route, if hashed then, and
// the beacon that run stored, if any.
func (r *Runner) decide(origin addr.IA, rc *receiver, flights []flight, was group) (group, error) {
	n := len(rc.in)
	g := group{prev: rc.last, in: make([]input, n)}
	r.Metrics.Redecided.Add(uint64(n))
	admitted := 0
	for j, i := range rc.in {
		f := &flights[i]
		var stored *Entry
		if m := slices.IndexFunc(was.in, func(in input) bool { return in.is(f) }); m >= 0 {
			f.route, stored = was.in[m].entry.Route, was.in[m].stored()
		}
		ok := admits(rc.store, f)
		in := &g.in[j]
		*in = input{seg: f.seg, link: int32(f.l.ID), entry: Entry{Route: f.route}}
		if !ok {
			g.filtered++
			continue
		}
		seg, fresh, err := r.build(f, stored)
		if err != nil {
			return group{}, err
		}
		if fresh && r.verifier != nil {
			start := time.Now()
			bad := r.verifier.VerifyLast(seg)
			if r.Metrics.VerifyLatency != nil {
				r.Metrics.VerifyLatency.Observe(float64(time.Since(start)) / float64(time.Millisecond))
			}
			if bad != nil {
				r.Metrics.VerifyFailed.Inc()
				g.failed++
				continue
			}
			r.Metrics.Verified.Inc()
		}
		in.entry = Entry{Seg: seg, RecvIf: f.recvIf, Route: f.route}
		rc.store.InsertEntry(&in.entry)
		admitted++
	}
	g.pruned = r.prune(g.in, admitted)
	r.Metrics.Filtered.Add(g.filtered)
	r.Metrics.Pruned.Add(g.pruned)
	// The record shares the list with the store; capped at its length,
	// it is copied by the next insert rather than written into.
	if list := rc.store.byOrigin[origin]; list != nil {
		g.list = slices.Clip(list)
		rc.store.byOrigin[origin] = g.list
	}
	return g, nil
}

// originBeta0 derives a PCB's initial accumulator: the first two bytes
// of the origin's hop-key CMAC over (timestamp, egress interface). Drawn
// from a random stream it made every run's beacons new ones; derived, a
// beacon is a function of its route. Bytes 12-15 are zero in every hop
// MAC input, so this block is none.
func originBeta0(mac *scrypto.CMAC, ts uint32, egress uint16) uint16 {
	var in, out [16]byte
	binary.BigEndian.PutUint32(in[0:4], ts)
	binary.BigEndian.PutUint16(in[14:16], egress)
	mac.SumInto(&out, in[:])
	return binary.BigEndian.Uint16(out[:2])
}

// originate resolves the PCB leaving origin over link l as the flight
// that carries it: the one the receiver stored from l in the previous
// run's round 0, if it carries the run's timestamp, or one created now.
func (r *Runner) originate(origin addr.IA, l *topology.Link) (flight, error) {
	local, _ := l.Local(origin)
	remote, _ := l.Other(origin)
	f := flight{l: l, recvIf: remote.IfID, length: 1}
	for _, in := range r.prev.groups[groupID{groupKey{remote.IA, origin}, 0}].in {
		if e := in.stored(); e != nil && int(in.link) == l.ID && e.Seg.Timestamp == r.Timestamp {
			r.Metrics.Reused.Inc()
			f.seg, f.route = e.Seg, e.Route
			return f, nil
		}
	}
	// The route of a one-entry beacon, before there is a beacon.
	f.route = new(segment.Segment).ExtendedRouteID(origin, 0, local.IfID)
	as := r.view[origin]
	seg, err := segment.Originate(r.Timestamp, originBeta0(as.mac, r.Timestamp, local.IfID), origin,
		local.IfID, remote.IA, l.LatencyMS, hopExpTime, as.mac)
	if err != nil {
		return f, err
	}
	seg.ASEntries[0].MTU = as.mtu
	r.Metrics.Built.Inc()
	f.seg, f.fresh = seg, true
	return f, r.signLast(seg, origin)
}

// signLast signs the entry ia just appended, when the run signs at all.
func (r *Runner) signLast(seg *segment.Segment, ia addr.IA) error {
	if signer := r.view[ia].signer; signer != nil {
		return seg.SignLast(signer)
	}
	return nil
}

// build turns an admitted flight into the beacon its receiver stores:
// the originated one, the one the previous run stored for the same
// candidate (stored: its group's record has every beacon of the route
// that run kept), or a new extension (fresh: no one has verified it).
func (r *Runner) build(f *flight, stored *Entry) (seg *segment.Segment, fresh bool, err error) {
	switch {
	case f.from == 0:
		return f.seg, f.fresh, nil
	case stored != nil:
		r.Metrics.Reused.Inc()
		return stored.Seg, false, nil
	}
	seg, err = r.extend(f.seg, f.from, f.inIf, f.l)
	return seg, true, err
}

// extend appends the entry of 'at' to a received beacon and prepares it
// to leave over link out (or terminate if out is nil).
func (r *Runner) extend(seg *segment.Segment, at addr.IA, inIf uint16, out *topology.Link) (*segment.Segment, error) {
	as := r.view[at]
	r.Metrics.Built.Inc()
	// Copy-on-write: the clone shares the parent's entry array; the
	// capacity clamp makes Extend's append copy into an owned array, so
	// sibling extensions of one received beacon never alias.
	ext := seg.CloneForExtend()
	e := segment.ASEntry{IA: at, Ingress: inIf, ExpTime: hopExpTime, MTU: as.mtu}
	if out != nil {
		local, _ := out.Local(at)
		remote, _ := out.Other(at)
		e.Egress = local.IfID
		e.Next = remote.IA
		e.LinkLatencyMS = out.LatencyMS
	}
	if err := ext.Extend(e, as.mac); err != nil {
		return nil, err
	}
	// Advertise peering links so the combinator can build peer
	// shortcuts. The peer-crossing MAC covers the accumulator after
	// this AS's own entry.
	if len(as.peers) > 0 {
		appended := &ext.ASEntries[len(ext.ASEntries)-1]
		appended.Peers = slices.Clone(as.peers)
		beta := ext.BetaFinal()
		for i := range appended.Peers {
			p := &appended.Peers[i]
			p.MAC = scrypto.HopMAC(as.mac, scrypto.HopMACInput{
				Beta:        beta,
				Timestamp:   ext.Timestamp,
				ExpTime:     hopExpTime,
				ConsIngress: p.LocalIf,
				ConsEgress:  appended.Egress,
			})
		}
	}
	return ext, r.signLast(ext, at)
}

// groupKey identifies one best-K selection group: the beacons one AS
// accepted from one origin within a single round.
type groupKey struct{ to, origin addr.IA }

// propagateK resolves the effective per-round propagation bound.
func (r *Runner) propagateK() int {
	switch {
	case r.PropagateBestK < 0:
		return 0
	case r.PropagateBestK == 0:
		return DefaultPropagateBestK
	default:
		return r.PropagateBestK
	}
}

// prune marks the candidates of one group whose admitted entries (n of
// them) the best-K propagation bound keeps from going on, and returns
// how many it marked. A group at or under the bound is untouched, so on
// topologies that never exceed it (the SCIERA reference graph) the
// propagation schedule is bit-identical to unbounded flooding.
func (r *Runner) prune(in []input, n int) uint64 {
	k := r.propagateK()
	if k <= 0 || n <= k {
		return 0
	}
	group := make([]*Entry, 0, n)
	for j := range in {
		if e := in[j].stored(); e != nil {
			group = append(group, e)
		}
	}
	keep := make(map[*Entry]bool, k)
	for _, e := range SelectBestK(group, k) {
		keep[e] = true
	}
	pruned := uint64(0)
	for j := range in {
		if e := in[j].stored(); e != nil && !keep[e] {
			in[j].pruned = true
			pruned++
		}
	}
	return pruned
}
