// Package pan is the SCION application library ("path-aware
// networking"): drop-in UDP-style sockets with path selection. It
// implements the three operation modes of Section 4.2.1 — sharing a
// pre-installed daemon, embedding the daemon with an external
// bootstrapper, or fully standalone (the library bootstraps itself, so
// applications work on hosts with no SCION components installed) — and
// the path policies the SCIERA evaluation exercises: shortest, fastest,
// most disjoint, hop-sequence predicates, and interactive selection.
package pan

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"sciera/internal/combinator"
)

// Policy orders candidate paths by preference; the first usable one is
// selected.
type Policy interface {
	Name() string
	Order(paths []*combinator.Path) []*combinator.Path
}

// AvailablePreferencePolicies lists the named policies usable from
// command lines (mirroring the PAN library's flag support, Appendix E).
var AvailablePreferencePolicies = []string{"shortest", "fastest", "disjoint"}

// PolicyByName resolves a named policy ("" means shortest).
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "shortest":
		return Shortest{}, nil
	case "fastest":
		return Fastest{}, nil
	case "disjoint":
		return MostDisjoint{}, nil
	default:
		return nil, fmt.Errorf("pan: unknown policy %q (have %s)",
			name, strings.Join(AvailablePreferencePolicies, "|"))
	}
}

// Shortest prefers the fewest AS hops, tie-broken by the lowest path
// identifier (the multiping tool's "shortest path" definition).
type Shortest struct{}

func (Shortest) Name() string { return "shortest" }

func (Shortest) Order(paths []*combinator.Path) []*combinator.Path {
	out := append([]*combinator.Path(nil), paths...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].NumHops() != out[j].NumHops() {
			return out[i].NumHops() < out[j].NumHops()
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// Fastest prefers the lowest expected latency: measured RTTs when
// available (see RTTRecorder), control-plane latency metadata otherwise.
type Fastest struct {
	// RTTs supplies measured round-trip estimates keyed by path
	// fingerprint; nil uses metadata only.
	RTTs *RTTRecorder
}

func (Fastest) Name() string { return "fastest" }

func (f Fastest) Order(paths []*combinator.Path) []*combinator.Path {
	out := append([]*combinator.Path(nil), paths...)
	cost := func(p *combinator.Path) float64 {
		if f.RTTs != nil {
			if rtt, ok := f.RTTs.Get(p.Fingerprint); ok {
				return rtt.Seconds() * 1000
			}
		}
		return 2 * p.LatencyMS
	}
	sort.SliceStable(out, func(i, j int) bool {
		ci, cj := cost(out[i]), cost(out[j])
		if ci != cj {
			return ci < cj
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// MostDisjoint prefers the path sharing the fewest globally unique
// interfaces with the given reference paths (the multiping tool's third
// probe path: most disjoint from the shortest and the fastest).
type MostDisjoint struct {
	References []*combinator.Path
}

func (MostDisjoint) Name() string { return "disjoint" }

func (m MostDisjoint) Order(paths []*combinator.Path) []*combinator.Path {
	refs := m.References
	if len(refs) == 0 && len(paths) > 0 {
		refs = []*combinator.Path{paths[0]}
	}
	// Each path is scored once, against every reference; the sort then
	// compares scores.
	type scored struct {
		path  *combinator.Path
		score float64
	}
	byScore := make([]scored, len(paths))
	for i, p := range paths {
		min := 2.0
		for _, r := range refs {
			if d := combinator.Disjointness(p, r); d < min {
				min = d
			}
		}
		byScore[i] = scored{p, min}
	}
	sort.SliceStable(byScore, func(i, j int) bool {
		if byScore[i].score != byScore[j].score {
			return byScore[i].score > byScore[j].score
		}
		return byScore[i].path.Fingerprint < byScore[j].path.Fingerprint
	})
	out := make([]*combinator.Path, len(paths))
	for i, s := range byScore {
		out[i] = s.path
	}
	return out
}

// Sequence selects only paths whose AS sequence matches a list of hop
// predicates ("71-1 71-2 0-0 71-5c"; "0-0" is a single-AS wildcard).
type Sequence struct {
	Predicates []string
}

func (Sequence) Name() string { return "sequence" }

// ParseSequence builds a Sequence from a space-separated predicate
// string.
func ParseSequence(s string) Sequence {
	return Sequence{Predicates: strings.Fields(s)}
}

func (s Sequence) Order(paths []*combinator.Path) []*combinator.Path {
	var out []*combinator.Path
	for _, p := range paths {
		if s.matches(p) {
			out = append(out, p)
		}
	}
	return out
}

func (s Sequence) matches(p *combinator.Path) bool {
	ases := p.ASes()
	if len(s.Predicates) != len(ases) {
		return false
	}
	for i, pred := range s.Predicates {
		if pred == "0-0" {
			continue
		}
		if pred != ases[i].String() {
			return false
		}
	}
	return true
}

// Interactive delegates the choice to a callback (the bat tool's
// interactive path selection, Section 5.2).
type Interactive struct {
	Choose func(paths []*combinator.Path) int
}

func (Interactive) Name() string { return "interactive" }

func (i Interactive) Order(paths []*combinator.Path) []*combinator.Path {
	if len(paths) == 0 || i.Choose == nil {
		return paths
	}
	idx := i.Choose(paths)
	if idx < 0 || idx >= len(paths) {
		return paths
	}
	out := []*combinator.Path{paths[idx]}
	for j, p := range paths {
		if j != idx {
			out = append(out, p)
		}
	}
	return out
}

// RTTRecorder tracks exponentially weighted RTT estimates per path
// fingerprint.
type RTTRecorder struct {
	mu   sync.Mutex
	rtts map[string]time.Duration
}

// NewRTTRecorder creates an empty recorder.
func NewRTTRecorder() *RTTRecorder {
	return &RTTRecorder{rtts: make(map[string]time.Duration)}
}

// Observe folds a measurement into the estimate (EWMA, alpha = 1/4).
func (r *RTTRecorder) Observe(fingerprint string, rtt time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.rtts[fingerprint]; ok {
		r.rtts[fingerprint] = old*3/4 + rtt/4
		return
	}
	r.rtts[fingerprint] = rtt
}

// Get returns the current estimate.
func (r *RTTRecorder) Get(fingerprint string) (time.Duration, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rtt, ok := r.rtts[fingerprint]
	return rtt, ok
}
