package experiments

import (
	"fmt"
	"io"
	"time"

	"sciera/internal/core"
	"sciera/internal/multiping"
)

// Experiment names runnable via Run.
var Names = []string{
	"table1", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7",
	"fig8", "fig9", "fig10a", "fig10b", "fig10c",
	"table2", "enablement", "survey",
}

// Run executes one experiment by name. Campaign-backed figures reuse a
// dataset when provided (run "campaign" figures via RunAll to share it).
func Run(w io.Writer, name string, cfg Config) error {
	needsCampaign := map[string]bool{
		"fig5": true, "fig6": true, "fig7": true,
		"fig8": true, "fig9": true, "fig10a": true,
	}
	if needsCampaign[name] {
		ds, n, err := RunCampaign(cfg)
		if err != nil {
			return err
		}
		defer n.Close()
		duration, interval, _ := cfg.campaign()
		return dispatch(w, name, cfg, ds, n, duration, interval)
	}
	return dispatch(w, name, cfg, nil, nil, 0, 0)
}

func dispatch(w io.Writer, name string, cfg Config, ds *multiping.Dataset, n *core.Network, duration, interval time.Duration) error {
	s := cfg.scn()
	switch name {
	case "table1":
		Table1(w, s)
	case "fig1":
		return Figure1(w, s)
	case "fig3":
		Figure3(w, s)
	case "fig4":
		return Figure4(w, cfg)
	case "fig5":
		Figure5(w, ds)
	case "fig6":
		Figure6(w, s, ds)
	case "fig7":
		Figure7(w, s, ds)
	case "fig8":
		Figure8(w, s, ds)
	case "fig9":
		Figure9(w, s, ds, duration, interval)
	case "fig10a":
		Figure10a(w, ds)
	case "fig10b":
		net := n
		if net == nil {
			var err error
			net, _, err = buildNetworkCfg(cfg)
			if err != nil {
				return err
			}
			defer net.Close()
		}
		Figure10b(w, s, net)
	case "fig10c":
		return Figure10c(w, cfg)
	case "table2":
		Table2(w)
	case "enablement":
		EnablementTable(w)
	case "survey":
		SurveyTable(w)
	default:
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names)
	}
	return nil
}

// RunAll executes every experiment, sharing one measurement campaign
// across the figures that need it.
func RunAll(w io.Writer, cfg Config) error {
	s := cfg.scn()
	Table1(w, s)
	if err := Figure1(w, s); err != nil {
		return err
	}
	Figure3(w, s)
	if err := Figure4(w, cfg); err != nil {
		return err
	}

	ds, n, err := RunCampaign(cfg)
	if err != nil {
		return err
	}
	defer n.Close()
	duration, interval, _ := cfg.campaign()
	Figure5(w, ds)
	Figure6(w, s, ds)
	Figure7(w, s, ds)
	Figure8(w, s, ds)
	Figure9(w, s, ds, duration, interval)
	Figure10a(w, ds)
	// Disjointness characterizes the deployment itself, so it runs on
	// an intact network rather than the post-campaign state (which
	// still carries the long-running circuit outages).
	fresh, _, err := buildNetworkCfg(cfg)
	if err != nil {
		return err
	}
	Figure10b(w, s, fresh)
	fresh.Close()

	if err := Figure10c(w, cfg); err != nil {
		return err
	}
	Table2(w)
	EnablementTable(w)
	SurveyTable(w)
	return nil
}
