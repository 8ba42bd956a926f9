// Package daemon implements the SCION end-host daemon: the component
// that owns all interactions with the control plane on behalf of
// applications — path lookup and combination, path caching, TRC storage,
// and knowledge of the AS-local infrastructure (border router and
// control service addresses).
//
// The daemon can be shared by many applications on a host
// (daemon-dependent mode) or embedded directly inside an application
// process by the pan library (bootstrapper-dependent and standalone
// modes, Section 4.2.1) — the code is identical, only the ownership
// differs.
package daemon

import (
	"fmt"
	"net/netip"
	"sync"
	"time"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/control"
	"sciera/internal/cppki"
	"sciera/internal/simnet"
	"sciera/internal/telemetry"
)

// Info is the AS-local environment the daemon operates in — the product
// of bootstrapping (package bootstrap).
type Info struct {
	LocalIA addr.IA
	// RouterAddr is the border router's intra-AS underlay address.
	RouterAddr netip.AddrPort
	// ControlAddr is the control service's underlay address.
	ControlAddr netip.AddrPort
}

// Daemon caches paths and trust material for one AS.
type Daemon struct {
	info Info
	net  simnet.Network
	cli  *control.Client

	// CacheTTL bounds how long combined paths are served without asking
	// the control service again (default 60s, well below segment expiry).
	CacheTTL time.Duration

	mu   sync.Mutex
	trcs *cppki.Store
	// paths is the daemon's one path cache, an entry per destination.
	paths map[addr.IA]pathEntry
	// inflight coalesces concurrent lookups for the same destination
	// into one control-service fetch: the first caller owns the fetch,
	// later callers park their callbacks here and are answered when it
	// resolves (singleflight).
	inflight map[addr.IA][]func([]*combinator.Path, error)

	// lookups/hits/coalesced are telemetry cells so Stats() and a
	// registered /metrics endpoint read the same numbers.
	lookups, hits, coalesced telemetry.Counter
	// cHits/cMisses/cInvalidations count what a fetch did to the entry:
	// re-confirmed it on NotModified (no recombination), had to
	// recombine, or found it dead because a backing segment expired or
	// the store generation moved on.
	cHits, cMisses, cInvalidations telemetry.Counter
}

// RegisterTelemetry adopts the daemon's counters into a registry,
// labeled with the daemon's AS.
func (d *Daemon) RegisterTelemetry(reg *telemetry.Registry) {
	l := telemetry.L("ia", d.info.LocalIA.String())
	reg.RegisterCounter("sciera_daemon_lookups_total", "path lookups served by the daemon", &d.lookups, l)
	reg.RegisterCounter("sciera_daemon_cache_hits_total", "path lookups answered from the daemon cache", &d.hits, l)
	reg.RegisterCounter("sciera_daemon_lookups_coalesced_total", "path lookups coalesced onto an already in-flight fetch", &d.coalesced, l)
	reg.RegisterCounter("sciera_daemon_combine_cache_hits_total", "lookups served from the memoized path combination", &d.cHits, l)
	reg.RegisterCounter("sciera_daemon_combine_cache_misses_total", "lookups that re-ran path combination", &d.cMisses, l)
	reg.RegisterCounter("sciera_daemon_combine_cache_invalidations_total", "memoized combinations dropped on segment expiry or generation change", &d.cInvalidations, l)
}

// pathEntry is one destination's combined paths. It is served as is
// while the control service confirmed it within CacheTTL; after that the
// daemon asks again, echoing gen, and a NotModified answer re-confirms
// the entry without decoding or recombining a segment. Past expiry (the
// earliest path expiry; serving before that instant equals recombining
// and filtering afresh) the entry is dropped and fetched in full.
type pathEntry struct {
	paths []*combinator.Path
	// gen is the control service's token for the segment stores paths
	// were combined from (0: none, never echoed).
	gen       uint64
	expiry    time.Time
	confirmed time.Time
}

// New creates a daemon and its control-service client.
func New(net simnet.Network, info Info, clientAddr netip.AddrPort) (*Daemon, error) {
	cli, err := control.NewClient(net, info.ControlAddr, clientAddr)
	if err != nil {
		return nil, fmt.Errorf("daemon %v: %w", info.LocalIA, err)
	}
	return &Daemon{
		info:     info,
		net:      net,
		cli:      cli,
		CacheTTL: time.Minute,
		trcs:     cppki.NewStore(),
		paths:    make(map[addr.IA]pathEntry),
		inflight: make(map[addr.IA][]func([]*combinator.Path, error)),
	}, nil
}

// Info returns the daemon's environment.
func (d *Daemon) Info() Info { return d.info }

// LocalIA returns the daemon's AS.
func (d *Daemon) LocalIA() addr.IA { return d.info.LocalIA }

// TRCs exposes the daemon's trust store.
func (d *Daemon) TRCs() *cppki.Store { return d.trcs }

// Close shuts the daemon down.
func (d *Daemon) Close() error { return d.cli.Close() }

// Stats reports lookup and cache-hit counts.
func (d *Daemon) Stats() (lookups, hits uint64) {
	return d.lookups.Load(), d.hits.Load()
}

// CombineStats reports combine-cache outcomes: lookups served from the
// memoized combination, lookups that recombined, and entries dropped on
// segment expiry or generation change.
func (d *Daemon) CombineStats() (hits, misses, invalidations uint64) {
	return d.cHits.Load(), d.cMisses.Load(), d.cInvalidations.Load()
}

// PathsAsync resolves paths to dst, from cache when fresh, otherwise by
// querying the control service and combining segments. Concurrent
// lookups for the same destination coalesce onto one in-flight fetch
// (singleflight): only the first caller queries the control service,
// the rest are answered from its result when it lands. The callback is
// invoked exactly once.
func (d *Daemon) PathsAsync(dst addr.IA, cb func([]*combinator.Path, error)) {
	now := d.net.Now()
	d.mu.Lock()
	d.lookups.Inc()
	e, cached := d.paths[dst]
	if cached && now.Before(e.confirmed.Add(d.CacheTTL)) {
		d.hits.Inc()
		d.mu.Unlock()
		cb(e.paths, nil)
		return
	}
	if dst == d.info.LocalIA {
		// AS-internal: the empty path.
		d.mu.Unlock()
		cb([]*combinator.Path{{Src: dst, Dst: dst, Fingerprint: "empty"}}, nil)
		return
	}
	if waiters, ok := d.inflight[dst]; ok {
		// A fetch for dst is already on the wire: park the callback.
		d.coalesced.Inc()
		d.inflight[dst] = append(waiters, cb)
		d.mu.Unlock()
		return
	}
	d.inflight[dst] = append(make([]func([]*combinator.Path, error), 0, 1), cb)
	// Echo the lapsed entry's generation to the control service — unless
	// its earliest path expiry has passed: it is stale even if the stores
	// are unchanged, so drop it and fetch in full.
	gen := e.gen
	if cached && !now.Before(e.expiry) {
		gen = 0
		delete(d.paths, dst)
		d.cInvalidations.Inc()
	}
	d.mu.Unlock()

	d.fetch(dst, gen)
}

// fetch queries the control service for dst's segments, echoing the
// cached entry's generation token. A NotModified verdict re-confirms
// the entry (zero segment decodes, zero recombination); anything else
// recombines and replaces it.
func (d *Daemon) fetch(dst addr.IA, gen uint64) {
	d.cli.Do(&control.Request{Type: "paths", Dst: dst, Gen: gen}, func(resp *control.Response, err error) {
		if err != nil {
			d.finishLookup(dst, nil, err)
			return
		}
		if resp.Error != "" {
			d.finishLookup(dst, nil, fmt.Errorf("daemon: control service: %s", resp.Error))
			return
		}
		if resp.NotModified {
			if gen == 0 {
				d.finishLookup(dst, nil, fmt.Errorf("daemon: control service answered NotModified to an unconditional request"))
				return
			}
			if paths, ok := d.confirm(dst, gen, d.net.Now()); ok {
				d.finishLookup(dst, paths, nil)
				return
			}
			// The entry vanished (flush, or expiry crossed while the
			// request was on the wire): retry unconditionally.
			d.fetch(dst, 0)
			return
		}
		ups, err := control.DecodeSegments(resp.Ups)
		if err != nil {
			d.finishLookup(dst, nil, err)
			return
		}
		cores, err := control.DecodeSegments(resp.Cores)
		if err != nil {
			d.finishLookup(dst, nil, err)
			return
		}
		downs, err := control.DecodeSegments(resp.Downs)
		if err != nil {
			d.finishLookup(dst, nil, err)
			return
		}
		d.cMisses.Inc()
		paths := combinator.Combine(d.info.LocalIA, dst, ups, cores, downs)
		// Drop already-expired paths.
		now := d.net.Now()
		fresh := paths[:0]
		for _, p := range paths {
			if p.Expiry.After(now) {
				fresh = append(fresh, p)
			}
		}
		d.store(dst, resp.Gen, fresh, now)
		d.finishLookup(dst, fresh, nil)
	})
}

// confirm resolves a NotModified verdict against the cached entry: it
// must still exist, carry the echoed generation, and not have crossed
// its earliest path expiry. The hit path performs no allocation
// (guarded by TestDaemonCombineCacheZeroAlloc).
func (d *Daemon) confirm(dst addr.IA, gen uint64, now time.Time) ([]*combinator.Path, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.paths[dst]
	if !ok || e.gen != gen || !now.Before(e.expiry) {
		if ok {
			delete(d.paths, dst)
			d.cInvalidations.Inc()
		}
		return nil, false
	}
	d.cHits.Inc()
	e.confirmed = now
	d.paths[dst] = e
	return e.paths, true
}

// store caches a freshly combined (and expiry-filtered) path set under
// the control service's generation token.
func (d *Daemon) store(dst addr.IA, gen uint64, paths []*combinator.Path, now time.Time) {
	// Earliest backing expiry; an entry with no paths stays valid until
	// the generation moves (an expired empty set is still empty).
	expiry := now.Add(1000 * 24 * time.Hour)
	for _, p := range paths {
		if p.Expiry.Before(expiry) {
			expiry = p.Expiry
		}
	}
	d.mu.Lock()
	if old, ok := d.paths[dst]; ok && old.gen != 0 && old.gen != gen {
		d.cInvalidations.Inc()
	}
	d.paths[dst] = pathEntry{paths: paths, gen: gen, expiry: expiry, confirmed: now}
	d.mu.Unlock()
}

// finishLookup resolves a singleflight fetch: answers the owning caller
// and every coalesced waiter. Callbacks run outside d.mu (they may
// re-enter PathsAsync).
func (d *Daemon) finishLookup(dst addr.IA, paths []*combinator.Path, err error) {
	d.mu.Lock()
	waiters := d.inflight[dst]
	delete(d.inflight, dst)
	d.mu.Unlock()
	for _, w := range waiters {
		w(paths, err)
	}
}

// Paths is PathsAsync waiting on the transport for its answer
// (simnet.Await).
func (d *Daemon) Paths(dst addr.IA) (paths []*combinator.Path, err error) {
	if werr := simnet.Await(d.net, func(done func()) {
		d.PathsAsync(dst, func(p []*combinator.Path, e error) { paths, err = p, e; done() })
	}); werr != nil {
		return nil, werr
	}
	return paths, err
}

// FlushCache clears the path cache (e.g. after an SCMP interface-down
// revocation makes cached paths suspect).
func (d *Daemon) FlushCache() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.paths = make(map[addr.IA]pathEntry)
}

// FetchTRCAsync retrieves and verifies the TRC for an ISD from the
// control service. An initial TRC is verified as a base TRC; successors
// must chain from the stored one.
func (d *Daemon) FetchTRCAsync(isd addr.ISD, cb func(*cppki.TRC, error)) {
	d.cli.Do(&control.Request{Type: "trc", ISD: isd}, func(resp *control.Response, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		if resp.Error != "" {
			cb(nil, fmt.Errorf("daemon: control service: %s", resp.Error))
			return
		}
		trc, err := cppki.DecodeTRC(resp.TRC)
		if err != nil {
			cb(nil, err)
			return
		}
		now := d.net.Now()
		d.mu.Lock()
		if _, ok := d.trcs.Get(isd); ok {
			err = d.trcs.Update(trc, now)
		} else {
			err = d.trcs.AddTrusted(trc, now)
		}
		d.mu.Unlock()
		// Like finishLookup's, the callback runs outside d.mu: it may
		// re-enter the daemon.
		if err != nil {
			cb(nil, err)
			return
		}
		cb(trc, nil)
	})
}
