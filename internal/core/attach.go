package core

import (
	"fmt"

	"sciera/internal/addr"
	"sciera/internal/router"
	"sciera/internal/scrypto"
	"sciera/internal/topology"
)

// UplinkSpec describes one circuit from a newly joining AS to an
// existing parent.
type UplinkSpec struct {
	Parent    addr.IA
	LatencyMS float64
	Name      string
}

// AttachAS joins a new AS to the running network: it is added to the
// topology with the given uplinks, gets a hop key, a border router and
// a control service, and the control plane re-converges. This is the
// runtime primitive behind the orchestrator's "AS setup in hours, not
// days" automation (Section 4.4).
func (n *Network) AttachAS(info topology.ASInfo, uplinks []UplinkSpec) error {
	if len(uplinks) == 0 {
		return fmt.Errorf("core: attaching %v requires at least one uplink", info.IA)
	}
	if err := n.Topo.AddAS(info); err != nil {
		return err
	}
	ia := info.IA
	n.keys[ia] = scrypto.DeriveHopKey([]byte(fmt.Sprintf("as-secret-%s-%d", ia, n.Opts.Seed)), 0)

	// Data plane: router and circuits, with the same telemetry wiring
	// as the ASes built at network construction.
	r, err := router.New(n.routerConfig(ia))
	if err != nil {
		return err
	}
	n.routers[ia] = r
	for _, ul := range uplinks {
		if _, err := n.AddRuntimeLink(ul.Parent, ia, topology.LinkParent, ul.LatencyMS, ul.Name); err != nil {
			return err
		}
	}

	// In PKI-enabled networks the joining AS obtains its certificate
	// through the online CA flow (package ca via the control service);
	// the orchestrator drives that renewal separately.

	if err := n.startControlService(ia); err != nil {
		return err
	}
	return n.RefreshControlPlane()
}

// AddRuntimeLink adds a circuit between two running ASes (a "new link
// became available" event, like the EU-US circuits of Jan 25 in
// Section 5.4) and wires both routers. The caller decides when to
// refresh the control plane.
func (n *Network) AddRuntimeLink(a, b addr.IA, typ topology.LinkType, latencyMS float64, name string) (*topology.Link, error) {
	for _, ia := range []addr.IA{a, b} {
		if _, ok := n.routers[ia]; !ok {
			return nil, fmt.Errorf("core: %v not in network", ia)
		}
	}
	l, err := n.Topo.AddLink(topology.LinkEnd{IA: a}, topology.LinkEnd{IA: b}, typ, latencyMS, name)
	if err != nil {
		return nil, err
	}
	if err := n.wire(l, make([]circuit, 2)); err != nil {
		return nil, err
	}
	return l, nil
}
