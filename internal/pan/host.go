package pan

import (
	"fmt"
	"net/netip"
	"time"

	"sciera/internal/bootstrap"
	"sciera/internal/daemon"
	"sciera/internal/simnet"
)

// Mode identifies how the library obtained its SCION environment
// (Section 4.2.1).
type Mode int

const (
	// ModeDaemon shares a pre-installed daemon process.
	ModeDaemon Mode = iota
	// ModeBootstrapper embeds the daemon but relies on an external
	// bootstrapper's configuration.
	ModeBootstrapper
	// ModeStandalone embeds both: the library bootstrapped itself.
	ModeStandalone
)

func (m Mode) String() string {
	switch m {
	case ModeDaemon:
		return "daemon"
	case ModeBootstrapper:
		return "bootstrapper"
	case ModeStandalone:
		return "standalone"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Host is a process's SCION environment: the entry point for opening
// sockets. Obtain one via WithDaemon, WithBootstrapper, Standalone, or
// the auto-fallback AutoInit.
type Host struct {
	net  simnet.Network
	d    *daemon.Daemon
	mode Mode
	ownD bool // we created the daemon and own its lifecycle
	rtts *RTTRecorder
}

// WithDaemon uses a shared, externally managed daemon (daemon-dependent
// mode).
func WithDaemon(net simnet.Network, d *daemon.Daemon) *Host {
	return &Host{net: net, d: d, mode: ModeDaemon, rtts: NewRTTRecorder()}
}

// WithBootstrapper embeds a private daemon configured from an external
// bootstrapper's result (bootstrapper-dependent mode; platforms that
// cannot run a shared background daemon).
func WithBootstrapper(net simnet.Network, res *bootstrap.Result) (*Host, error) {
	d, err := daemon.New(net, daemon.Info{
		LocalIA:     res.Topology.IA,
		RouterAddr:  res.Topology.RouterAddr,
		ControlAddr: res.Topology.ControlAddr,
	}, netip.AddrPort{})
	if err != nil {
		return nil, err
	}
	return &Host{net: net, d: d, mode: ModeBootstrapper, ownD: true, rtts: NewRTTRecorder()}, nil
}

// Standalone bootstraps the library itself — no pre-installed
// components at all — and embeds the daemon. The callback fires once
// with the ready Host or an error.
func Standalone(net simnet.Network, env bootstrap.Env, local netip.AddrPort, cb func(*Host, error)) {
	cli, err := bootstrap.NewClient(net, local, env)
	if err != nil {
		cb(nil, err)
		return
	}
	cli.Bootstrap(nil, func(res *bootstrap.Result, err error) {
		defer cli.Close()
		if err != nil {
			cb(nil, fmt.Errorf("pan: standalone bootstrap: %w", err))
			return
		}
		h, err := WithBootstrapper(net, res)
		if err != nil {
			cb(nil, err)
			return
		}
		h.mode = ModeStandalone
		cb(h, nil)
	})
}

// AutoInit implements the automatic mode fallback (P1): use the shared
// daemon when one is present, otherwise bootstrap standalone. There is
// no mode knob for applications — "it will just work".
func AutoInit(net simnet.Network, shared *daemon.Daemon, env bootstrap.Env, cb func(*Host, error)) {
	if shared != nil {
		cb(WithDaemon(net, shared), nil)
		return
	}
	Standalone(net, env, netip.AddrPort{}, cb)
}

// Mode reports how the host was initialized.
func (h *Host) Mode() Mode { return h.mode }

// Daemon exposes the underlying lookup engine.
func (h *Host) Daemon() *daemon.Daemon { return h.d }

// LocalIA returns the host's AS.
func (h *Host) LocalIA() addrIA { return h.d.LocalIA() }

// RTTs returns the host-wide RTT recorder feeding the Fastest policy.
func (h *Host) RTTs() *RTTRecorder { return h.rtts }

// Now returns the transport's clock — virtual time on the simulator.
// Protocols measuring elapsed network time (e.g. throughput) must use
// this, not the wall clock.
func (h *Host) Now() time.Time { return h.net.Now() }

// Close releases resources the host owns (a private daemon in
// bootstrapper/standalone modes; a shared daemon is left running).
func (h *Host) Close() error {
	if h.ownD {
		return h.d.Close()
	}
	return nil
}
