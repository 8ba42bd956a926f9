package beacon

import (
	"fmt"
	"math/rand"
	"runtime"
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
	// Verified counts received beacons whose signatures verified on
	// receipt (verify-on-receipt runs only when the runner has TRCs).
	// Only beacons the receiving store could still admit at the start of
	// the round are built, signed and verified, so this counts admissible
	// beacons, not every candidate sent.
	Verified telemetry.Counter
	// VerifyFailed counts received beacons dropped because signature
	// verification failed.
	VerifyFailed telemetry.Counter
	// VerifyLatency optionally records per-beacon verification wall time
	// in milliseconds, one observation per admissible beacon (Verified +
	// VerifyFailed); nil disables the measurement.
	VerifyLatency *telemetry.Histogram
}

// Register adopts the cells into a registry.
func (m *RunnerMetrics) Register(reg *telemetry.Registry) {
	reg.RegisterCounter("sciera_beacon_originated_total", "PCBs originated at core ASes", &m.Originated)
	reg.RegisterCounter("sciera_beacon_propagated_total", "beacon extensions propagated to neighbors", &m.Propagated)
	reg.RegisterCounter("sciera_beacon_filtered_total", "beacon extensions suppressed by policy or store", &m.Filtered)
	reg.RegisterCounter("sciera_beacon_pruned_total", "accepted beacons not re-propagated due to the best-K bound", &m.Pruned)
	reg.RegisterCounter("sciera_beacon_registered_total", "beacons terminated into registered segments", &m.Registered)
	reg.RegisterCounter("sciera_beacon_verified_total", "received beacons whose signatures verified on receipt", &m.Verified)
	reg.RegisterCounter("sciera_beacon_verify_failed_total", "received beacons dropped on signature verification failure", &m.VerifyFailed)
	if m.VerifyLatency != nil {
		reg.RegisterHistogram("sciera_beacon_verify_latency_ms", "per-beacon signature verification wall time (ms)", m.VerifyLatency)
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
	// RegisterBestK bounds how many stored beacons per origin an AS
	// terminates into registered segments, selected by SelectBestK
	// (the store bound if 0 — i.e. register everything kept — unbounded
	// if negative).
	RegisterBestK int
	// MaxRounds bounds propagation (default: #ASes + 2).
	MaxRounds int
	// Rng drives beta0 randomization; required for determinism.
	Rng *rand.Rand
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
	// VerifyWorkers bounds the verification worker pool (GOMAXPROCS if
	// 0). Registry contents are identical at any worker count.
	VerifyWorkers int
	// VerifyAt is the PKI validity instant for verification; zero means
	// the segment origination timestamp.
	VerifyAt time.Time

	// verifier is built per Run when verify-on-receipt is enabled; its
	// signature memo makes repeat prefixes (the common case in beacon
	// fan-out) cost one hash instead of one ECDSA verify per entry.
	verifier *segment.Verifier
	// view is the topology as this Run reads it, taken once.
	view map[addr.IA]*asView
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
		mac, err := scrypto.NewHopCMAC(r.Keys(as.IA))
		if err != nil {
			return err
		}
		r.view[as.IA] = &asView{core: as.Core, commercial: as.Commercial, mtu: as.MTU, mac: mac}
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

// flight is one beacon crossing one link. Origination builds its beacon
// outright; every later flight is a candidate: the beacon as the sender
// stores it plus the entry the sender would append, which is only built
// once the receiver's store admits it.
type flight struct {
	// seg is the originated beacon when from is zero, otherwise the
	// parent beacon, which from received on interface inIf and would
	// extend over l.
	seg  *segment.Segment
	from addr.IA
	inIf uint16
	l    *topology.Link
	to   addr.IA
}

// candidate is what a receiver knows of a flight's beacon before anyone
// has built it — all a store's admission rule asks about.
type candidate struct {
	origin addr.IA
	length int
	route  string
	recvIf uint16
}

// candidate derives the flight's admission facts; the route ID is hashed
// here, once, and carried into the stored Entry.
func (f flight) candidate() (candidate, error) {
	sender := f.from
	if sender == 0 {
		sender = f.seg.LastIA()
	}
	out, _ := f.l.Local(sender)
	in, _ := f.l.Other(sender)
	if in.IA != f.to {
		return candidate{}, fmt.Errorf("beacon: internal: flight misrouted")
	}
	c := candidate{origin: f.seg.FirstIA(), length: f.seg.Len(), recvIf: in.IfID}
	if f.from == 0 {
		c.route = f.seg.RouteID()
	} else {
		c.length++
		c.route = f.seg.ExtendedRouteID(f.from, f.inIf, out.IfID)
	}
	return c, nil
}

// Registry holds the outcome of a beaconing run: the segment databases
// that the path-lookup infrastructure serves.
type Registry struct {
	// Up holds, per non-core AS, the up segments it registered locally
	// (stored as Down-type segments: core → AS).
	Up map[addr.IA]*pathdb.DB
	// Core holds core segments (origin core → terminating core),
	// queryable at any core control service.
	Core *pathdb.DB
	// Down holds down segments registered at the core path server
	// infrastructure, keyed by (origin core, leaf).
	Down *pathdb.DB

	// memo holds the combinations Paths has resolved (lookup.go); the
	// zero value is an empty memo.
	memoMu sync.Mutex
	memo   map[[2]addr.IA]memoEntry
}

// Run performs core beaconing and intra-ISD (down) beaconing to a fixed
// point and returns the resulting registries.
func (r *Runner) Run() (*Registry, error) {
	if r.Rng == nil {
		return nil, fmt.Errorf("beacon: Runner requires an explicit Rng")
	}
	if err := r.snapshot(); err != nil {
		return nil, err
	}
	if r.MaxRounds == 0 {
		r.MaxRounds = len(r.view) + 2
	}
	if r.Metrics == nil {
		r.Metrics = &RunnerMetrics{}
	}
	if r.TRCs != nil {
		at := r.VerifyAt
		if at.IsZero() {
			at = time.Unix(int64(r.Timestamp), 0)
		}
		r.verifier = segment.NewVerifier(r.TRCs, r.Chains, at)
	}
	reg := &Registry{
		Up:   make(map[addr.IA]*pathdb.DB),
		Core: pathdb.New(),
		Down: pathdb.New(),
	}
	for ia, as := range r.view {
		if !as.core {
			reg.Up[ia] = pathdb.New()
		}
	}
	if err := r.runCore(reg); err != nil {
		return nil, err
	}
	if err := r.runDown(reg); err != nil {
		return nil, err
	}
	return reg, nil
}

// runCore floods core PCBs across the core mesh. Every core AS
// accumulates beacons from every other core origin; terminating a beacon
// registers a core segment origin→self.
func (r *Runner) runCore(reg *Registry) error {
	var segs []*segment.Segment
	err := r.flood(true,
		func(as *asView) ([]*topology.Link, uint64) { return as.coreLinks, 0 },
		// No-commercial-transit policy (Section 4.9): a beacon originated
		// by a commercial provider may terminate at another commercial
		// provider, but the academic network never advertises paths that
		// would carry commercial-to-commercial transit. Such a beacon is
		// registrable where it is but not extended further toward
		// commercial peers.
		func(origin, next *asView) bool { return origin.commercial && next.commercial },
		func(_ addr.IA, terms []*segment.Segment) { segs = append(segs, terms...) })
	reg.Core.InsertAll(segs)
	return err
}

// runDown floods intra-ISD PCBs from core ASes down parent links. Every
// non-core AS registers terminated beacons locally (up segments) and at
// the origin core's path server (down segments) — in this whole-network
// driver both registries are views over the same segment set.
func (r *Runner) runDown(reg *Registry) error {
	var segs []*segment.Segment
	err := r.flood(false,
		func(as *asView) ([]*topology.Link, uint64) { return as.childLinks, as.downChildren },
		func(origin, next *asView) bool { return false },
		func(ia addr.IA, terms []*segment.Segment) {
			reg.Up[ia].InsertAll(terms)
			segs = append(segs, terms...)
		})
	reg.Down.InsertAll(segs)
	return err
}

// flood runs one beaconing process to its fixed point: every core AS
// originates over the links out gives it, the core (or, for intra-ISD
// beaconing, the non-core) ASes receive, and each round every receiver
// admits, selects and re-propagates over its own out links, except
// toward an AS already on the path or one refuse rules out for the
// beacon's origin. out also says how many of the AS's links of that kind
// are down; a beacon that would cross one counts as Filtered. What each
// store holds at the end is terminated and handed to register, one call
// per AS — a registry is loaded, not inserted into.
//
// A beacon is built when a store admits it. A flight names the parent
// beacon and the link; the receiver hashes the candidate's route and
// asks its store, in flight order, whether it would keep it — and only
// then is the extension made (cloned, MACed, peer entries, signature).
// The counters and every registry are those of a flood that builds each
// candidate at the sender (the eagerRun oracle in the tests).
func (r *Runner) flood(core bool,
	out func(*asView) (up []*topology.Link, down uint64),
	refuse func(origin, next *asView) bool,
	register func(at addr.IA, terms []*segment.Segment)) error {
	stores := make(map[addr.IA]*Store)
	var origins []addr.IA
	for ia, as := range r.view {
		if as.core == core {
			stores[ia] = NewStore(r.BestPerOrigin)
		}
		if as.core {
			origins = append(origins, ia)
		}
	}
	slices.Sort(origins)

	// Origination: one PCB per link direction, in AS then link order —
	// the order the Rng is drawn in.
	var flights []flight
	for _, origin := range origins {
		links, down := out(r.view[origin])
		r.Metrics.Filtered.Add(down)
		for _, l := range links {
			seg, err := r.originate(origin, l)
			if err != nil {
				return err
			}
			r.Metrics.Originated.Inc()
			other, _ := l.Other(origin)
			flights = append(flights, flight{seg: seg, l: l, to: other.IA})
		}
	}

	for round := 0; round < r.MaxRounds && len(flights) > 0; round++ {
		cands := make([]candidate, len(flights))
		for i, f := range flights {
			c, err := f.candidate()
			if err != nil {
				return err
			}
			cands[i] = c
		}
		// Verify-on-receipt: build, sign and verify what the stores could
		// still admit as the round starts. A store only tightens within a
		// round, so that is a superset of what the in-order pass below
		// admits, and it can be verified in parallel ahead of it.
		var built []*segment.Segment
		var verdicts []error
		if r.verifier != nil {
			built = make([]*segment.Segment, len(flights))
			for i, f := range flights {
				if c := cands[i]; stores[f.to].Admits(c.origin, c.length, c.route) {
					seg, err := r.build(f)
					if err != nil {
						return err
					}
					built[i] = seg
				}
			}
			verdicts = r.verifyBuilt(built)
		}
		// Insert phase, in flight order: a verified (or unchecked)
		// candidate the store admits is built and stored; acceptances are
		// grouped by (receiver, origin) for best-K selection.
		entries := make([]*Entry, len(flights))
		groups := make(map[groupKey][]int)
		for i, f := range flights {
			c, store := cands[i], stores[f.to]
			if built != nil && built[i] != nil {
				if verdicts[i] != nil {
					r.Metrics.VerifyFailed.Inc()
					continue
				}
				r.Metrics.Verified.Inc()
			}
			if !store.Admits(c.origin, c.length, c.route) {
				r.Metrics.Filtered.Inc()
				continue
			}
			var seg *segment.Segment
			if built != nil {
				seg = built[i]
			} else {
				var err error
				if seg, err = r.build(f); err != nil {
					return err
				}
			}
			if seg == nil {
				return fmt.Errorf("beacon: internal: store admits a beacon it refused earlier in the round")
			}
			entries[i] = &Entry{Seg: seg, RecvIf: c.recvIf, Route: c.route}
			store.InsertEntry(entries[i])
			g := groupKey{f.to, c.origin}
			groups[g] = append(groups[g], i)
		}
		// Selection phase: bound what each AS floods onward per origin.
		r.pruneGroups(entries, groups)
		// Extension phase: the survivors go out over every other eligible
		// link, in the original flight order.
		next := make([]flight, 0, len(flights))
		for i, f := range flights {
			e := entries[i]
			if e == nil {
				continue
			}
			links, down := out(r.view[f.to])
			r.Metrics.Filtered.Add(down)
			for _, l := range links {
				if l.ID == f.l.ID {
					continue
				}
				other, _ := l.Other(f.to)
				if e.Seg.ContainsIA(other.IA) || refuse(r.view[cands[i].origin], r.view[other.IA]) {
					r.Metrics.Filtered.Inc()
					continue
				}
				r.Metrics.Propagated.Inc()
				next = append(next, flight{seg: e.Seg, from: f.to, inIf: e.RecvIf, l: l, to: other.IA})
			}
		}
		flights = next
	}

	// Registration: terminate every stored beacon into a segment. Stored
	// beacons were verified on receipt (when enabled); the terminating
	// extension is the registering AS's own, so no re-verify.
	for ia, store := range stores {
		var terms []*segment.Segment
		for _, es := range store.All() {
			for _, e := range SelectBestK(es, r.registerK()) {
				term, err := r.extend(e.Seg, ia, e.RecvIf, nil)
				if err != nil {
					return err
				}
				r.Metrics.Registered.Inc()
				terms = append(terms, term)
			}
		}
		register(ia, terms)
	}
	return nil
}

// originate creates a fresh PCB leaving origin over link l.
func (r *Runner) originate(origin addr.IA, l *topology.Link) (*segment.Segment, error) {
	local, _ := l.Local(origin)
	remote, _ := l.Other(origin)
	seg, err := segment.Originate(r.Timestamp, uint16(r.Rng.Intn(1<<16)), origin,
		local.IfID, remote.IA, l.LatencyMS, hopExpTime, r.view[origin].mac)
	if err != nil {
		return nil, err
	}
	return seg, r.signLast(seg, origin)
}

// signLast signs the entry ia just appended, when the run signs at all.
func (r *Runner) signLast(seg *segment.Segment, ia addr.IA) error {
	if r.Signers != nil {
		if signer := r.Signers(ia); signer != nil {
			return seg.SignLast(signer)
		}
	}
	return nil
}

// build turns an admitted flight into the beacon its receiver stores.
func (r *Runner) build(f flight) (*segment.Segment, error) {
	if f.from == 0 {
		return f.seg, nil
	}
	return r.extend(f.seg, f.from, f.inIf, f.l)
}

// extend appends the entry of 'at' to a received beacon and prepares it
// to leave over link out (or terminate if out is nil).
func (r *Runner) extend(seg *segment.Segment, at addr.IA, inIf uint16, out *topology.Link) (*segment.Segment, error) {
	as := r.view[at]
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

// verifyBuilt checks the signatures of every beacon built for a round
// (nil slots are candidates no store would admit), fanned out over a
// bounded worker pool. Verdict i is always for flight i, and the caller
// consumes verdicts in flight order, so the admitted beacon set — and
// therefore every registry — is identical at any worker count.
func (r *Runner) verifyBuilt(built []*segment.Segment) []error {
	verdicts := make([]error, len(built))
	verify := func(i int) {
		if built[i] == nil {
			return
		}
		start := time.Now()
		verdicts[i] = r.verifier.Verify(built[i])
		if r.Metrics.VerifyLatency != nil {
			r.Metrics.VerifyLatency.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		}
	}
	w := r.VerifyWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(built) {
		w = len(built)
	}
	if w <= 1 {
		for i := range built {
			verify(i)
		}
		return verdicts
	}
	var wg sync.WaitGroup
	for s := 0; s < w; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < len(built); i += w {
				verify(i)
			}
		}(s)
	}
	wg.Wait()
	return verdicts
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

// registerK resolves the effective per-origin registration bound.
func (r *Runner) registerK() int {
	switch {
	case r.RegisterBestK < 0:
		return 0
	case r.RegisterBestK == 0:
		if r.BestPerOrigin > 0 {
			return r.BestPerOrigin
		}
		return DefaultBestPerOrigin
	default:
		return r.RegisterBestK
	}
}

// pruneGroups drops (sets to nil) the accepted beacons beyond the best-K
// propagation bound, per (receiving AS, origin) group. Groups at or
// under the bound are untouched, so on topologies that never exceed it
// (the SCIERA reference graph) the propagation schedule is bit-identical
// to unbounded flooding.
func (r *Runner) pruneGroups(entries []*Entry, groups map[groupKey][]int) {
	k := r.propagateK()
	if k <= 0 {
		return
	}
	for _, idxs := range groups {
		if len(idxs) <= k {
			continue
		}
		group := make([]*Entry, len(idxs))
		for j, i := range idxs {
			group[j] = entries[i]
		}
		keep := make(map[*Entry]bool, k)
		for _, e := range SelectBestK(group, k) {
			keep[e] = true
		}
		for _, i := range idxs {
			if !keep[entries[i]] {
				entries[i] = nil
				r.Metrics.Pruned.Inc()
			}
		}
	}
}
