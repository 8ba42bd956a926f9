package beacon

import (
	"fmt"
	"math/rand"
	"runtime"
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
	// Propagated counts beacon extensions sent onward to a neighbor.
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
	Verified telemetry.Counter
	// VerifyFailed counts received beacons dropped because signature
	// verification failed.
	VerifyFailed telemetry.Counter
	// VerifyLatency optionally records per-beacon verification wall time
	// in milliseconds; nil disables the measurement.
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
	// TRCs enables verify-on-receipt: when set (alongside Signers), every
	// received beacon's entry signatures are verified against the ISD TRC
	// before it is admitted to a beacon store, and unverifiable beacons
	// are dropped. Matches the deployment, where an AS never extends a
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
	// macs holds one prepared hop-key CMAC per AS for the duration of a
	// Run: every hop and peer MAC an AS computes reuses its key schedule.
	macs map[addr.IA]*scrypto.CMAC
}

// hopExpTime is the relative expiry every hop field is issued with
// (63 ≈ 6h).
const hopExpTime = 63

// flight is one beacon crossing one link: the segment as prepared by the
// sender, the link it crosses, and the receiving AS.
type flight struct {
	seg *segment.Segment
	l   *topology.Link
	to  addr.IA
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
	ases := r.Topo.ASes()
	if r.MaxRounds == 0 {
		r.MaxRounds = len(ases) + 2
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
	r.macs = make(map[addr.IA]*scrypto.CMAC, len(ases))
	for _, as := range ases {
		if !as.Core {
			reg.Up[as.IA] = pathdb.New()
		}
		mac, err := scrypto.NewHopCMAC(r.Keys(as.IA))
		if err != nil {
			return nil, err
		}
		r.macs[as.IA] = mac
	}
	if err := r.runCore(reg); err != nil {
		return nil, err
	}
	if err := r.runDown(reg); err != nil {
		return nil, err
	}
	return reg, nil
}

// originate creates a fresh PCB leaving origin over link l.
func (r *Runner) originate(origin addr.IA, l *topology.Link) (*segment.Segment, error) {
	local, _ := l.Local(origin)
	remote, _ := l.Other(origin)
	seg, err := segment.Originate(r.Timestamp, uint16(r.Rng.Intn(1<<16)), origin,
		local.IfID, remote.IA, l.LatencyMS, hopExpTime, r.macs[origin])
	if err != nil {
		return nil, err
	}
	if r.Signers != nil {
		if signer := r.Signers(origin); signer != nil {
			if err := seg.SignLast(signer); err != nil {
				return nil, err
			}
		}
	}
	return seg, nil
}

// verifyFlights checks the signatures of every in-flight beacon for a
// round, fanned out over a bounded worker pool. Verdict i is always for
// flight i, and the caller consumes verdicts in flight order, so the
// admitted beacon set — and therefore every registry — is identical at
// any worker count.
func (r *Runner) verifyFlights(flights []flight) []error {
	verdicts := make([]error, len(flights))
	verify := func(i int) {
		start := time.Now()
		verdicts[i] = r.verifier.Verify(flights[i].seg)
		if r.Metrics.VerifyLatency != nil {
			r.Metrics.VerifyLatency.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		}
	}
	w := r.VerifyWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(flights) {
		w = len(flights)
	}
	if w <= 1 {
		for i := range flights {
			verify(i)
		}
		return verdicts
	}
	var wg sync.WaitGroup
	for s := 0; s < w; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < len(flights); i += w {
				verify(i)
			}
		}(s)
	}
	wg.Wait()
	return verdicts
}

// admit applies the round's verification verdict for flight i, counting
// the outcome. It reports whether the beacon may enter the store.
func (r *Runner) admit(verdicts []error, i int) bool {
	if verdicts == nil {
		return true
	}
	if verdicts[i] != nil {
		r.Metrics.VerifyFailed.Inc()
		return false
	}
	r.Metrics.Verified.Inc()
	return true
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

// pruneGroups clears the accepted bit of beacons beyond the best-K
// propagation bound, per (receiving AS, origin) group. Groups at or
// under the bound are untouched, so on topologies that never exceed it
// (the SCIERA reference graph) the propagation schedule is bit-identical
// to unbounded flooding.
func (r *Runner) pruneGroups(flights []flight, recvIf []uint16, accepted []bool, groups map[groupKey][]int) {
	k := r.propagateK()
	if k <= 0 {
		return
	}
	for _, idxs := range groups {
		if len(idxs) <= k {
			continue
		}
		entries := make([]*Entry, len(idxs))
		for j, i := range idxs {
			entries[j] = NewEntry(flights[i].seg, recvIf[i])
		}
		keep := make(map[*Entry]bool, k)
		for _, e := range SelectBestK(entries, k) {
			keep[e] = true
		}
		for j, i := range idxs {
			if !keep[entries[j]] {
				accepted[i] = false
				r.Metrics.Pruned.Inc()
			}
		}
	}
}

// extend appends the entry of 'at' to a received beacon and prepares it
// to leave over link out (or terminate if out is nil).
func (r *Runner) extend(seg *segment.Segment, at addr.IA, inIf uint16, out *topology.Link) (*segment.Segment, error) {
	// Copy-on-write: the clone shares the parent's entry array; the
	// capacity clamp makes Extend's append copy into an owned array, so
	// sibling extensions of one received beacon never alias.
	ext := seg.CloneForExtend()
	e := segment.ASEntry{IA: at, Ingress: inIf, ExpTime: hopExpTime}
	if out != nil {
		local, _ := out.Local(at)
		remote, _ := out.Other(at)
		e.Egress = local.IfID
		e.Next = remote.IA
		e.LinkLatencyMS = out.LatencyMS
	}
	if info, ok := r.Topo.AS(at); ok {
		e.MTU = info.MTU
	}
	if err := ext.Extend(e, r.macs[at]); err != nil {
		return nil, err
	}
	// Advertise peering links so the combinator can build peer
	// shortcuts. The peer-crossing MAC covers the accumulator after
	// this AS's own entry.
	appended := &ext.ASEntries[len(ext.ASEntries)-1]
	for _, pl := range r.Topo.UpLinksOf(at) {
		if pl.Type != topology.LinkPeer {
			continue
		}
		local, _ := pl.Local(at)
		remote, _ := pl.Other(at)
		appended.Peers = append(appended.Peers, segment.PeerEntry{
			Peer:          remote.IA,
			PeerIf:        remote.IfID,
			LocalIf:       local.IfID,
			LinkLatencyMS: pl.LatencyMS,
			ExpTime:       hopExpTime,
			MAC: scrypto.HopMAC(r.macs[at], scrypto.HopMACInput{
				Beta:        ext.BetaFinal(),
				Timestamp:   ext.Timestamp,
				ExpTime:     hopExpTime,
				ConsIngress: local.IfID,
				ConsEgress:  appended.Egress,
			}),
		})
	}
	if r.Signers != nil {
		if signer := r.Signers(at); signer != nil {
			if err := ext.SignLast(signer); err != nil {
				return nil, err
			}
		}
	}
	return ext, nil
}

// runCore floods core PCBs across the core mesh. Every core AS
// accumulates beacons from every other core origin; terminating a beacon
// registers a core segment origin→self.
func (r *Runner) runCore(reg *Registry) error {
	cores := r.Topo.CoreASes()
	stores := make(map[addr.IA]*Store, len(cores))
	for _, ia := range cores {
		stores[ia] = NewStore(r.BestPerOrigin)
	}

	var flights []flight

	commercial := func(ia addr.IA) bool {
		info, ok := r.Topo.AS(ia)
		return ok && info.Commercial
	}

	// Origination: one PCB per core link direction.
	for _, origin := range cores {
		for _, l := range r.Topo.UpLinksOf(origin) {
			if l.Type != topology.LinkCore {
				continue
			}
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
		var verdicts []error
		if r.verifier != nil {
			verdicts = r.verifyFlights(flights)
		}
		// Insert phase: admit every verified flight into its receiver's
		// store, grouping acceptances by (receiver, origin) for best-K
		// selection. Store inserts run in flight order, exactly as the
		// interleaved loop did.
		accepted := make([]bool, len(flights))
		recvIf := make([]uint16, len(flights))
		groups := make(map[groupKey][]int)
		for i, f := range flights {
			inEnd, _ := f.l.Other(f.seg.ASEntries[len(f.seg.ASEntries)-1].IA)
			if inEnd.IA != f.to {
				return fmt.Errorf("beacon: internal: flight misrouted")
			}
			recvIf[i] = inEnd.IfID
			if !r.admit(verdicts, i) {
				continue
			}
			if !stores[f.to].Insert(f.seg, inEnd.IfID) {
				r.Metrics.Filtered.Inc()
				continue
			}
			accepted[i] = true
			groups[groupKey{f.to, f.seg.FirstIA()}] = append(groups[groupKey{f.to, f.seg.FirstIA()}], i)
		}
		// Selection phase: bound what each AS floods onward per origin.
		r.pruneGroups(flights, recvIf, accepted, groups)
		// Extension phase: propagate the survivors over every other up
		// core link whose far end is not already on the path, in the
		// original flight order.
		var next []flight
		for i, f := range flights {
			if !accepted[i] {
				continue
			}
			for _, l := range r.Topo.UpLinksOf(f.to) {
				if l.Type != topology.LinkCore || l.ID == f.l.ID {
					continue
				}
				other, _ := l.Other(f.to)
				if f.seg.ContainsIA(other.IA) {
					r.Metrics.Filtered.Inc()
					continue
				}
				// No-commercial-transit policy (Section 4.9): a beacon
				// originated by a commercial provider may terminate at
				// another commercial provider, but the academic
				// network never advertises paths that would carry
				// commercial-to-commercial transit. Such a beacon is
				// registrable at f.to but not extended further toward
				// commercial peers.
				if commercial(f.seg.FirstIA()) && commercial(other.IA) {
					r.Metrics.Filtered.Inc()
					continue
				}
				ext, err := r.extend(f.seg, f.to, recvIf[i], l)
				if err != nil {
					return err
				}
				r.Metrics.Propagated.Inc()
				next = append(next, flight{seg: ext, l: l, to: other.IA})
			}
		}
		flights = next
	}

	// Registration: terminate every stored beacon into a core segment.
	// Stored beacons were verified on receipt (when enabled); the
	// terminating extension is the registering AS's own, so no re-verify.
	for ia, store := range stores {
		for _, es := range store.All() {
			for _, e := range SelectBestK(es, r.registerK()) {
				term, err := r.extend(e.Seg, ia, e.RecvIf, nil)
				if err != nil {
					return err
				}
				r.Metrics.Registered.Inc()
				reg.Core.Insert(term)
			}
		}
	}
	return nil
}

// runDown floods intra-ISD PCBs from core ASes down parent links. Every
// non-core AS registers terminated beacons locally (up segments) and at
// the origin core's path server (down segments) — in this whole-network
// driver both registries are views over the same segment set.
func (r *Runner) runDown(reg *Registry) error {
	var flights []flight
	stores := make(map[addr.IA]*Store)
	for _, as := range r.Topo.ASes() {
		if !as.Core {
			stores[as.IA] = NewStore(r.BestPerOrigin)
		}
	}

	for _, origin := range r.Topo.CoreASes() {
		for _, l := range r.Topo.Children(origin) {
			if !r.Topo.LinkUp(l.ID) {
				r.Metrics.Filtered.Inc()
				continue
			}
			seg, err := r.originate(origin, l)
			if err != nil {
				return err
			}
			r.Metrics.Originated.Inc()
			flights = append(flights, flight{seg: seg, l: l, to: l.B.IA})
		}
	}

	for round := 0; round < r.MaxRounds && len(flights) > 0; round++ {
		var verdicts []error
		if r.verifier != nil {
			verdicts = r.verifyFlights(flights)
		}
		// Same three phases as runCore: insert, best-K selection per
		// (receiver, origin), then extension in original flight order.
		accepted := make([]bool, len(flights))
		recvIf := make([]uint16, len(flights))
		groups := make(map[groupKey][]int)
		for i, f := range flights {
			local, _ := f.l.Local(f.to)
			recvIf[i] = local.IfID
			if !r.admit(verdicts, i) {
				continue
			}
			if !stores[f.to].Insert(f.seg, local.IfID) {
				r.Metrics.Filtered.Inc()
				continue
			}
			accepted[i] = true
			groups[groupKey{f.to, f.seg.FirstIA()}] = append(groups[groupKey{f.to, f.seg.FirstIA()}], i)
		}
		r.pruneGroups(flights, recvIf, accepted, groups)
		var next []flight
		for i, f := range flights {
			if !accepted[i] {
				continue
			}
			for _, l := range r.Topo.Children(f.to) {
				if !r.Topo.LinkUp(l.ID) {
					r.Metrics.Filtered.Inc()
					continue
				}
				if f.seg.ContainsIA(l.B.IA) {
					r.Metrics.Filtered.Inc()
					continue
				}
				ext, err := r.extend(f.seg, f.to, recvIf[i], l)
				if err != nil {
					return err
				}
				r.Metrics.Propagated.Inc()
				next = append(next, flight{seg: ext, l: l, to: l.B.IA})
			}
		}
		flights = next
	}

	for ia, store := range stores {
		for _, es := range store.All() {
			for _, e := range SelectBestK(es, r.registerK()) {
				term, err := r.extend(e.Seg, ia, e.RecvIf, nil)
				if err != nil {
					return err
				}
				r.Metrics.Registered.Inc()
				reg.Up[ia].Insert(term)
				reg.Down.Insert(term)
			}
		}
	}
	return nil
}
