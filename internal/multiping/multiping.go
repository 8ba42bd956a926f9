// Package multiping reimplements the scion-go-multiping measurement
// tool of Section 5.4: from every vantage AS it pings the other
// participant ASes every interval, over three SCION paths in parallel —
// the shortest, the fastest, and the most disjoint — plus the IP
// Internet baseline, and aggregates statistics per interval.
//
// Full path probes run when the control plane changed or when at least
// two pings failed in the previous interval, matching the tool's
// behaviour. The campaign executes in virtual time on the discrete-event
// transport: SCMP probes traverse the full serialized data plane; the
// IP baseline is the BGP-routed RTT on the commercial-Internet topology
// (an analytic traversal — DESIGN.md documents the substitution).
package multiping

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"sciera/internal/addr"
	"sciera/internal/combinator"
	"sciera/internal/core"
	"sciera/internal/pan"
	"sciera/internal/scenario"
	"sciera/internal/scmp"
	"sciera/internal/simnet"
	"sciera/internal/telemetry"
)

// PathType labels the three probe paths.
type PathType int

const (
	Shortest PathType = iota
	Fastest
	MostDisjoint
	numPathTypes
)

func (t PathType) String() string {
	switch t {
	case Shortest:
		return "shortest"
	case Fastest:
		return "fastest"
	case MostDisjoint:
		return "disjoint"
	default:
		return "?"
	}
}

// Record is one aggregated measurement interval for one AS pair.
type Record struct {
	// T is the offset from campaign start.
	T   time.Duration `json:"t"`
	Src addr.IA       `json:"src"`
	Dst addr.IA       `json:"dst"`
	// Seq is the pair's index in the canonical full-campaign pair
	// enumeration (vantage-major, target-minor). Together with T it
	// totally orders records, which is what lets shard-partial datasets
	// merge back into the exact single-worker record sequence.
	Seq uint64 `json:"seq"`

	// SCION side: minimum RTT across the three paths, the winning
	// path's type, and how many of the three probes succeeded.
	SCIONRTTms float64  `json:"scion_rtt_ms"`
	SCIONOK    int      `json:"scion_ok"`
	BestPath   PathType `json:"best_path"`
	// RTTms holds each probe path's RTT (-1: failed/absent), indexed
	// by PathType; the Figure 10a latency-inflation metric needs the
	// two lowest per interval.
	RTTms [3]float64 `json:"rtt_ms"`

	// ActivePaths is the path count from the most recent full probe.
	ActivePaths int `json:"active_paths"`

	// IP side: the BGP baseline RTT; IPMissing marks intervals the
	// paper excludes (the tool's hourly stall).
	IPRTTms   float64 `json:"ip_rtt_ms"`
	IPMissing bool    `json:"ip_missing"`
}

// ProbePair selects one ordered (src, dst) pair for probing. Index is
// the pair's position in the canonical full-campaign enumeration
// (vantage-major, target-minor; see AllPairs) and becomes the Seq of
// every record the pair emits — shard-aware sequence numbering, so a
// campaign split across workers merges back in canonical order.
type ProbePair struct {
	Src, Dst addr.IA
	Index    int
}

// AllPairs enumerates the canonical probe-pair order of a campaign:
// every vantage AS pings every other, source-major, self-pairs skipped.
// Shard planners partition this list; Index survives the partitioning.
func AllPairs(vantage []addr.IA) []ProbePair {
	out := make([]ProbePair, 0, len(vantage)*len(vantage))
	for _, src := range vantage {
		for _, dst := range vantage {
			if src == dst {
				continue
			}
			out = append(out, ProbePair{Src: src, Dst: dst, Index: len(out)})
		}
	}
	return out
}

// Config parameterizes a campaign.
type Config struct {
	// Vantage ASes run the tool and ping each other.
	Vantage []addr.IA
	// Pairs restricts the campaign to a subset of the canonical pair
	// enumeration — one shard of a partitioned campaign. Nil probes
	// every ordered vantage pair. Pairs must carry the Index values
	// AllPairs assigned over the full vantage set, or merged shard
	// datasets will not reproduce the unsharded record order.
	Pairs []ProbePair
	// Interval between measurement rounds (the tool pings at 1 Hz and
	// aggregates per minute; one round per interval samples the same
	// distribution).
	Interval time.Duration
	// Duration of the campaign.
	Duration time.Duration
	// Incidents to replay (link outages/flaps) and links activated
	// mid-campaign.
	Incidents []IncidentEvent
	// IPRTT returns the baseline RTT in ms for a pair (required). It is
	// asked once per record, and the shard workers of a partitioned
	// campaign share it: it must be cheap and safe for concurrent use
	// (topology.BGPBaseline is both).
	IPRTT func(src, dst addr.IA) float64
	// StallModel reproduces the tool's hourly ICMP stalls: sources
	// stall for 15-30 minutes after the start of some hours; those
	// intervals are marked IPMissing and excluded like in the paper.
	// Stall windows are a stable pseudo-random function of
	// (source, hour) so the excluded intervals are reproducible.
	StallModel bool
	// Seed is carried for provenance (stored with the dataset
	// metadata); the measurements themselves are topology-determined —
	// see the campaign-determinism test in internal/experiments.
	Seed int64
}

// pingTimeout bounds each probe.
const pingTimeout = 3 * time.Second

// IncidentEvent is a scheduled link state change.
type IncidentEvent struct {
	At     time.Duration
	LinkID int
	Up     bool
	Name   string
}

// BuildEvents flattens a scenario's outage/flap windows into link state
// changes; resolve maps a circuit name to its link ID.
func BuildEvents(resolve func(name string) (int, bool), incidents []scenario.Incident) ([]IncidentEvent, error) {
	var out []IncidentEvent
	for _, inc := range incidents {
		start, period := inc.Start(), inc.FlapPeriod()
		stop := start + inc.Duration()
		for _, name := range inc.Links {
			id, ok := resolve(name)
			if !ok {
				return nil, fmt.Errorf("multiping: unknown link %q in incident %q", name, inc.Name)
			}
			if period <= 0 {
				out = append(out,
					IncidentEvent{At: start, LinkID: id, Up: false, Name: inc.Name},
					IncidentEvent{At: stop, LinkID: id, Up: true, Name: inc.Name},
				)
				continue
			}
			down := inc.FlapDowntime()
			if down <= 0 || down >= period {
				down = period / 2
			}
			for t := start; t < stop; t += period {
				out = append(out, IncidentEvent{At: t, LinkID: id, Up: false, Name: inc.Name})
				out = append(out, IncidentEvent{At: min(t+down, stop), LinkID: id, Up: true, Name: inc.Name})
			}
			out = append(out, IncidentEvent{At: stop, LinkID: id, Up: true, Name: inc.Name})
		}
	}
	return out, nil
}

// Dataset is a completed campaign (or one shard of a partitioned one).
type Dataset struct {
	Records []Record
	// PathCounts holds every full-probe path count observation.
	PathCounts []PathCountSample
	// Probes counts SCMP echoes sent.
	Probes uint64
}

// Merge folds o's measurements into d and restores the canonical
// (T, Seq) order, leaving o unchanged. Because every record carries the
// pair's canonical sequence number and each (round, pair) emits at most
// one record, the merged dataset is byte-identical no matter how the
// campaign was partitioned or in which order the partials arrive —
// the dataset-level analogue of stats.CDF.Merge's merge==pooling
// property. In particular, merging the shards of an N-worker campaign
// reproduces the single-worker dataset exactly.
func (d *Dataset) Merge(o *Dataset) {
	if o == nil {
		return
	}
	d.Records = append(d.Records, o.Records...)
	d.PathCounts = append(d.PathCounts, o.PathCounts...)
	d.Probes += o.Probes
	sort.Slice(d.Records, func(i, j int) bool {
		if d.Records[i].T != d.Records[j].T {
			return d.Records[i].T < d.Records[j].T
		}
		return d.Records[i].Seq < d.Records[j].Seq
	})
	sort.Slice(d.PathCounts, func(i, j int) bool {
		if d.PathCounts[i].T != d.PathCounts[j].T {
			return d.PathCounts[i].T < d.PathCounts[j].T
		}
		return d.PathCounts[i].Seq < d.PathCounts[j].Seq
	})
}

// PathCountSample is one full-probe observation: the active path count
// and the two lowest path RTT estimates (for the Figure 10a latency
// inflation metric d2/d1).
type PathCountSample struct {
	T   time.Duration `json:"t"`
	Src addr.IA       `json:"src"`
	Dst addr.IA       `json:"dst"`
	// Seq is the pair's canonical enumeration index (see Record.Seq).
	Seq   uint64 `json:"seq"`
	Count int    `json:"count"`
	// BestMS and SecondMS are the two lowest RTTs over the active
	// paths at probe time (-1 when fewer than 1/2 paths exist).
	BestMS   float64 `json:"best_ms"`
	SecondMS float64 `json:"second_ms"`
}

// pairState tracks per-pair probing state.
type pairState struct {
	pinger  *scmp.Pinger
	dstHost netip.Addr // the destination's responder

	paths     []*combinator.Path // current full-probe result
	probe     [numPathTypes]*combinator.Path
	rtts      *pan.RTTRecorder
	failsLast int
	dirty     bool

	// rec is the pair's record of the round that began at roundStart:
	// round opens it, the probe callbacks fill it, finalise appends it
	// to the dataset. A reply to a probe of an earlier round (one that
	// outlived its interval) was not sent at roundStart and stays out.
	rec        Record
	roundStart time.Time
	// onReply are the probe callbacks, one per path type, bound once;
	// sentFP is the fingerprint of the path each last probed.
	onReply [numPathTypes]func(time.Duration, error)
	sentFP  [numPathTypes]string
}

// Campaign executes a multiping measurement run.
type Campaign struct {
	Net *core.Network
	Cfg Config

	sim        *simnet.Sim
	pingers    map[addr.IA]*scmp.Pinger
	responders map[addr.IA]*scmp.Responder
	// pairList is the campaign's probe pairs in canonical order (the
	// full enumeration, or this worker's shard of it); pairs holds
	// their state at the same indices.
	pairList []ProbePair
	pairs    []pairState
	data     *Dataset

	// Telemetry cells, resolved once at campaign setup (per probe path
	// type, so the RTT distributions of shortest/fastest/disjoint are
	// separable on /metrics like in Figure 10).
	rttHist [numPathTypes]*telemetry.Histogram
	lost    [numPathTypes]*telemetry.Counter
	probes  *telemetry.Counter
}

// NewCampaign prepares pingers and responders in every relevant AS.
func NewCampaign(n *core.Network, cfg Config) (*Campaign, error) {
	sim, ok := n.Transport.(*simnet.Sim)
	if !ok {
		return nil, fmt.Errorf("multiping: campaigns require the discrete-event transport")
	}
	if cfg.IPRTT == nil {
		return nil, fmt.Errorf("multiping: Config.IPRTT required")
	}
	pairList := cfg.Pairs
	if pairList == nil {
		pairList = AllPairs(cfg.Vantage)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Minute
	}
	c := &Campaign{
		Net:        n,
		Cfg:        cfg,
		sim:        sim,
		pingers:    make(map[addr.IA]*scmp.Pinger),
		responders: make(map[addr.IA]*scmp.Responder),
		pairList:   pairList,
		pairs:      make([]pairState, len(pairList)),
		data:       &Dataset{},
	}
	if cfg.Duration > 0 {
		rounds := int((cfg.Duration + cfg.Interval - 1) / cfg.Interval)
		c.data.Records = make([]Record, 0, rounds*len(pairList))
	}
	reg := n.Telemetry()
	if reg == nil {
		// Telemetry disabled on the network: keep private cells so the
		// probe callbacks never branch on nil.
		reg = telemetry.NewRegistry()
	}
	for pt := Shortest; pt < numPathTypes; pt++ {
		l := telemetry.L("path", pt.String())
		c.rttHist[pt] = reg.Histogram("sciera_multiping_rtt_ms", "SCMP probe RTT per probe path type", telemetry.DefBuckets, l)
		c.lost[pt] = reg.Counter("sciera_multiping_lost_total", "failed SCMP probes per probe path type", l)
	}
	c.probes = reg.Counter("sciera_multiping_probes_total", "SCMP echo probes sent")
	// Pingers and responders only for the ASes this campaign's pair
	// list actually touches: a shard worker sets up its own ASes, not
	// the whole vantage set.
	for i, pr := range pairList {
		if _, ok := c.pingers[pr.Src]; !ok {
			p, err := n.NewPinger(pr.Src)
			if err != nil {
				return nil, err
			}
			c.pingers[pr.Src] = p
		}
		if _, ok := c.responders[pr.Dst]; !ok {
			r, err := n.AttachResponder(pr.Dst)
			if err != nil {
				return nil, err
			}
			c.responders[pr.Dst] = r
		}
		st := &c.pairs[i]
		st.pinger = c.pingers[pr.Src]
		st.dstHost = c.responders[pr.Dst].Addr().Addr()
		st.rtts = pan.NewRTTRecorder()
		st.dirty = true
		for pt := Shortest; pt < numPathTypes; pt++ {
			pt := pt
			st.onReply[pt] = func(rtt time.Duration, err error) { c.probeDone(st, pt, rtt, err) }
		}
	}
	return c, nil
}

// Run executes the campaign and returns the dataset.
func (c *Campaign) Run() (*Dataset, error) {
	events := append([]IncidentEvent(nil), c.Cfg.Incidents...)
	// Event list sorted by time.
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j].At < events[j-1].At; j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
	evIdx := 0

	start := c.sim.Now()
	for t := time.Duration(0); t < c.Cfg.Duration; t += c.Cfg.Interval {
		// Apply due incidents, then refresh the control plane once.
		changed := false
		for evIdx < len(events) && events[evIdx].At <= t {
			ev := events[evIdx]
			evIdx++
			if c.Net.Topo.LinkUp(ev.LinkID) != ev.Up {
				if err := c.Net.Topo.SetLinkUp(ev.LinkID, ev.Up); err != nil {
					return nil, err
				}
				changed = true
			}
		}
		if changed {
			if err := c.Net.RefreshControlPlane(); err != nil {
				return nil, err
			}
			for i := range c.pairs {
				c.pairs[i].dirty = true
			}
		}
		c.round(t)
		c.sim.RunUntil(start.Add(t + c.Cfg.Interval))
	}
	return c.data, nil
}

// round performs one measurement interval: every pair's record is
// opened and its probes sent, and one event just before the interval
// ends (after the probes resolved) appends the records.
func (c *Campaign) round(t time.Duration) {
	now := c.sim.Now()
	for i := range c.pairList {
		pr, st := &c.pairList[i], &c.pairs[i]
		// Full path probe when dirty or after failures (the tool's
		// trigger: two or more failed pings).
		if st.dirty || st.failsLast >= 2 {
			c.fullProbe(t, *pr, st)
		}
		st.roundStart = now
		st.rec = Record{
			T: t, Src: pr.Src, Dst: pr.Dst, Seq: uint64(pr.Index),
			SCIONRTTms:  -1,
			RTTms:       [3]float64{-1, -1, -1},
			ActivePaths: len(st.paths),
			IPRTTms:     c.Cfg.IPRTT(pr.Src, pr.Dst),
			IPMissing:   c.stalledNow(pr.Src, t),
		}
		// A path type without a path counts as failed; lost probes add
		// to the count as they resolve, some before Ping returns.
		st.failsLast = 0
		for pt := Shortest; pt < numPathTypes; pt++ {
			path := st.probe[pt]
			if path == nil {
				st.failsLast++
				continue
			}
			st.sentFP[pt] = path.Fingerprint
			c.data.Probes++
			c.probes.Inc()
			st.pinger.Ping(pr.Dst, st.dstHost, path, pingTimeout, st.onReply[pt])
		}
	}
	c.sim.AfterFunc(c.Cfg.Interval-time.Millisecond, c.finalise)
}

// probeDone is the callback of pair st's probe over path type pt.
func (c *Campaign) probeDone(st *pairState, pt PathType, rtt time.Duration, err error) {
	if err != nil {
		st.failsLast++
		c.lost[pt].Inc()
		return
	}
	ms := float64(rtt) / float64(time.Millisecond)
	c.rttHist[pt].Observe(ms)
	st.rtts.Observe(st.sentFP[pt], rtt)
	if !c.sim.Now().Add(-rtt).Equal(st.roundStart) {
		return
	}
	rec := &st.rec
	rec.RTTms[pt] = ms
	if rec.SCIONRTTms < 0 || ms < rec.SCIONRTTms {
		rec.SCIONRTTms = ms
		rec.BestPath = pt
	}
	rec.SCIONOK++
}

// finalise appends the round's records in pair order.
func (c *Campaign) finalise() {
	for i := range c.pairs {
		c.data.Records = append(c.data.Records, c.pairs[i].rec)
	}
}

// fullProbe recomputes the pair's paths and probe selection.
func (c *Campaign) fullProbe(t time.Duration, pr ProbePair, st *pairState) {
	src, dst := pr.Src, pr.Dst
	st.paths = c.Net.Paths(src, dst)
	st.dirty = false
	st.failsLast = 0
	sample := PathCountSample{
		T: t, Src: src, Dst: dst, Seq: uint64(pr.Index),
		Count: len(st.paths), BestMS: -1, SecondMS: -1,
	}
	for _, p := range st.paths {
		rtt := 2 * p.LatencyMS
		switch {
		case sample.BestMS < 0 || rtt < sample.BestMS:
			sample.SecondMS = sample.BestMS
			sample.BestMS = rtt
		case sample.SecondMS < 0 || rtt < sample.SecondMS:
			sample.SecondMS = rtt
		}
	}
	c.data.PathCounts = append(c.data.PathCounts, sample)
	for pt := Shortest; pt < numPathTypes; pt++ {
		st.probe[pt] = nil
	}
	if len(st.paths) == 0 {
		return
	}
	shortest := pan.Shortest{}.Order(st.paths)[0]
	fastest := pan.Fastest{RTTs: st.rtts}.Order(st.paths)[0]
	disjoint := pan.MostDisjoint{References: []*combinator.Path{shortest, fastest}}.Order(st.paths)[0]
	st.probe[Shortest] = shortest
	st.probe[Fastest] = fastest
	st.probe[MostDisjoint] = disjoint
}

// stalledNow models the tool's hourly stall: for a deterministic subset
// of (source, hour) combinations, ICMP measurements go missing from
// minute 15 to minute 30+.
func (c *Campaign) stalledNow(src addr.IA, t time.Duration) bool {
	if !c.Cfg.StallModel {
		return false
	}
	hour := int(t / time.Hour)
	intoHour := t % time.Hour
	// A stable pseudo-random choice per (src, hour): ~40% of source
	// hours exhibit the stall, as the dataset gaps suggest.
	h := uint64(src)*1099511628211 ^ uint64(hour)*14695981039346656037
	h ^= h >> 33
	if h%10 >= 4 {
		return false
	}
	return intoHour >= 15*time.Minute && intoHour < 30*time.Minute
}

// Close releases pingers and responders.
func (c *Campaign) Close() {
	for _, p := range c.pingers {
		_ = p.Close()
	}
	for _, r := range c.responders {
		_ = r.Close()
	}
}
