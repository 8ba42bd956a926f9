// Package orchestrator reimplements the SCION Orchestrator toolchain
// (Section 4.4): configuration-driven AS provisioning that cut setup
// "from days to a few hours", automated certificate renewal, an
// aggregated service status dashboard, and continuous connectivity
// monitoring with alerting — the piece that let sites with minimal
// staff operate their own AS.
package orchestrator

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"time"

	"sciera/internal/addr"
	"sciera/internal/ca"
	"sciera/internal/core"
	"sciera/internal/cppki"
	"sciera/internal/stats"
	"sciera/internal/topology"
)

// ASConfig is the operator-facing provisioning document ("adding
// certificates or adding new links" through one config instead of
// manual fiddling).
type ASConfig struct {
	IA      addr.IA  `json:"ia"`
	Name    string   `json:"name"`
	Lat     float64  `json:"lat"`
	Lon     float64  `json:"lon"`
	Uplinks []Uplink `json:"uplinks"`
}

// Uplink declares one circuit to an upstream AS.
type Uplink struct {
	Parent    addr.IA `json:"parent"`
	LatencyMS float64 `json:"latency_ms"`
	Name      string  `json:"name"`
}

// ParseASConfig reads a provisioning document.
func ParseASConfig(b []byte) (*ASConfig, error) {
	var cfg ASConfig
	if err := json.Unmarshal(b, &cfg); err != nil {
		return nil, fmt.Errorf("orchestrator: parsing config: %w", err)
	}
	if cfg.IA.IsZero() {
		return nil, fmt.Errorf("orchestrator: config missing ia")
	}
	if len(cfg.Uplinks) == 0 {
		return nil, fmt.Errorf("orchestrator: config for %v has no uplinks", cfg.IA)
	}
	return &cfg, nil
}

// Alert is a monitoring notification ("our system alerts the affected
// parties via email").
type Alert struct {
	At      time.Time
	Target  addr.IA
	Down    bool // true: became unreachable; false: recovered
	Message string
}

// Orchestrator manages one deployment.
type Orchestrator struct {
	Net *core.Network
	// AlertFunc receives monitoring alerts (the email hook); nil
	// collects them internally only.
	AlertFunc func(Alert)

	mu        sync.Mutex
	renewers  map[addr.IA]*ca.Renewer
	alerts    []Alert
	downSince map[addr.IA]time.Time
	// timers holds the cancel of each loop's one pending tick; stopped
	// keeps a running tick from arming another after Stop.
	timers  []func()
	stopped bool
	events  []string
}

// New creates an orchestrator for a running network.
func New(n *core.Network) *Orchestrator {
	return &Orchestrator{
		Net:       n,
		renewers:  make(map[addr.IA]*ca.Renewer),
		downSince: make(map[addr.IA]time.Time),
	}
}

// Provision attaches a new AS described by cfg to the network and logs
// the steps an operator previously performed by hand.
func (o *Orchestrator) Provision(cfg *ASConfig) error {
	uplinks := make([]core.UplinkSpec, len(cfg.Uplinks))
	for i, u := range cfg.Uplinks {
		uplinks[i] = core.UplinkSpec{Parent: u.Parent, LatencyMS: u.LatencyMS, Name: u.Name}
	}
	o.log("provision %v (%s): generating forwarding key", cfg.IA, cfg.Name)
	o.log("provision %v: requesting %d L2 circuits", cfg.IA, len(uplinks))
	if err := o.Net.AttachAS(topology.ASInfo{
		IA: cfg.IA, Name: cfg.Name, Lat: cfg.Lat, Lon: cfg.Lon,
	}, uplinks); err != nil {
		return err
	}
	o.log("provision %v: border router and control service up, control plane converged", cfg.IA)
	return nil
}

// ManageRenewal registers an automated certificate renewal loop for an
// AS, issuing through the given CA and re-checking at the cadence.
func (o *Orchestrator) ManageRenewal(ia addr.IA, issuer *ca.CA, every time.Duration) (*ca.Renewer, error) {
	key, err := cppki.GenerateKey()
	if err != nil {
		return nil, err
	}
	r := ca.NewRenewer(ia, key, issuer.Issue, o.Net.Transport.Now)
	if err := r.Renew(); err != nil {
		return nil, err
	}
	o.mu.Lock()
	o.renewers[ia] = r
	o.mu.Unlock()

	o.loop(every, func() {
		renewed, err := r.Tick()
		if err != nil {
			o.log("renewal %v FAILED: %v", ia, err)
		} else if renewed {
			o.log("renewal %v: certificate reissued (total %d)", ia, r.Renewals())
		}
	})
	return r, nil
}

// loop runs tick every d until Stop, with one timer pending at a time.
func (o *Orchestrator) loop(d time.Duration, tick func()) {
	o.mu.Lock()
	slot := len(o.timers)
	o.timers = append(o.timers, nil)
	o.mu.Unlock()
	var arm func()
	arm = func() {
		cancel := o.Net.Transport.AfterFunc(d, func() { tick(); arm() })
		o.mu.Lock()
		defer o.mu.Unlock()
		if o.stopped {
			cancel()
			return
		}
		o.timers[slot] = cancel
	}
	arm()
}

// StartMonitoring begins continuous connectivity monitoring from the
// given vantage AS to every other AS: each cycle pings all targets and
// raises alerts on transitions.
func (o *Orchestrator) StartMonitoring(vantage addr.IA, every time.Duration) error {
	pinger, err := o.Net.NewPinger(vantage)
	if err != nil {
		return err
	}
	// Attach a responder in every AS so monitoring works even where
	// operators run nothing themselves (Section 4.4: "reduces the need
	// for independent operators to set up their own monitoring").
	var targets []addr.IA
	respAddrs := make(map[addr.IA]netip.AddrPort)
	for _, as := range o.Net.Topo.ASes() {
		if as.IA == vantage {
			continue
		}
		r, err := o.Net.AttachResponder(as.IA)
		if err != nil {
			return err
		}
		respAddrs[as.IA] = r.Addr()
		targets = append(targets, as.IA)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })

	cycle := func() {
		for _, dst := range targets {
			dst := dst
			paths := o.Net.Paths(vantage, dst)
			if len(paths) == 0 {
				o.observe(dst, false)
				continue
			}
			pinger.Ping(dst, respAddrs[dst].Addr(), paths[0], 3*time.Second, func(_ time.Duration, err error) {
				o.observe(dst, err == nil)
			})
		}
	}
	cycle()
	o.loop(every, cycle)
	return nil
}

// observe records a reachability observation and raises alerts on
// transitions (deduplicated: one alert per transition, not per cycle).
func (o *Orchestrator) observe(target addr.IA, up bool) {
	now := o.Net.Transport.Now()
	o.mu.Lock()
	_, wasDown := o.downSince[target]
	var alert *Alert
	switch {
	case !up && !wasDown:
		o.downSince[target] = now
		alert = &Alert{At: now, Target: target, Down: true,
			Message: fmt.Sprintf("ALERT: %v unreachable since %s", target, now.Format(time.RFC3339))}
	case up && wasDown:
		since := o.downSince[target]
		delete(o.downSince, target)
		alert = &Alert{At: now, Target: target, Down: false,
			Message: fmt.Sprintf("RESOLVED: %v reachable again (down %s)", target, now.Sub(since))}
	}
	if alert != nil {
		o.alerts = append(o.alerts, *alert)
	}
	cb := o.AlertFunc
	o.mu.Unlock()
	if alert != nil && cb != nil {
		cb(*alert)
	}
}

// Alerts returns all raised alerts.
func (o *Orchestrator) Alerts() []Alert {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Alert(nil), o.alerts...)
}

// Down lists currently unreachable ASes.
func (o *Orchestrator) Down() []addr.IA {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]addr.IA, 0, len(o.downSince))
	for ia := range o.downSince {
		out = append(out, ia)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stop cancels the monitoring and renewal loops for good: their
// pending ticks are cancelled, a tick already running arms no other,
// and a loop started later never ticks.
func (o *Orchestrator) Stop() {
	o.mu.Lock()
	stops := o.timers
	o.stopped = true
	o.mu.Unlock()
	for _, s := range stops {
		if s != nil {
			s()
		}
	}
}

// log records an operator-visible event.
func (o *Orchestrator) log(format string, args ...interface{}) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.events = append(o.events, fmt.Sprintf(format, args...))
}

// Events returns the operation log.
func (o *Orchestrator) Events() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.events...)
}

// Dashboard renders the aggregated service status view: per AS, its
// services, link states, certificate freshness and reachability.
func (o *Orchestrator) Dashboard() string {
	now := o.Net.Transport.Now()
	o.mu.Lock()
	down := make(map[addr.IA]bool, len(o.downSince))
	for ia := range o.downSince {
		down[ia] = true
	}
	renewers := make(map[addr.IA]*ca.Renewer, len(o.renewers))
	for ia, r := range o.renewers {
		renewers[ia] = r
	}
	o.mu.Unlock()

	t := stats.Table{Header: []string{"AS", "Name", "Router", "CS", "Links up", "Cert", "Reachable"}}
	for _, as := range o.Net.Topo.ASes() {
		router := "down"
		if _, ok := o.Net.Router(as.IA); ok {
			router = "up"
		}
		cs := "down"
		if _, ok := o.Net.ControlService(as.IA); ok {
			cs = "up"
		}
		up, total := 0, 0
		for _, l := range o.Net.Topo.LinksOf(as.IA) {
			total++
			if o.Net.Topo.LinkUp(l.ID) {
				up++
			}
		}
		cert := "n/a"
		if r, ok := renewers[as.IA]; ok {
			chain := r.Chain()
			if chain.AS != nil {
				cert = fmt.Sprintf("valid %s", chain.AS.NotAfter.Sub(now).Round(time.Hour))
			}
		}
		reach := "yes"
		if down[as.IA] {
			reach = "NO"
		}
		t.AddRow(as.IA.String(), as.Name, router, cs,
			fmt.Sprintf("%d/%d", up, total), cert, reach)
	}
	return t.Render()
}
