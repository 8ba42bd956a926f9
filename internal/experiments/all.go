package experiments

import (
	"fmt"
	"io"

	"sciera/internal/multiping"
)

// Names lists the experiments runnable via Run, in the order RunAll
// prints them.
var Names = []string{
	"table1", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7",
	"fig8", "fig9", "fig10a", "fig10b", "fig10c",
	"table2", "enablement", "survey",
}

// campaignFigures are the experiments drawn from the measurement
// campaign's dataset.
var campaignFigures = map[string]bool{
	"fig5": true, "fig6": true, "fig7": true,
	"fig8": true, "fig9": true, "fig10a": true,
}

// Run executes one experiment by name: exactly that experiment's
// section of RunAll's output.
func Run(w io.Writer, name string, cfg Config) error {
	return run(w, []string{name}, cfg)
}

// RunAll executes every experiment in Names order, sharing one
// measurement campaign across the figures that need it.
func RunAll(w io.Writer, cfg Config) error {
	return run(w, Names, cfg)
}

// run executes the named experiments in order. The campaign runs once,
// when the first name that needs it comes up.
func run(w io.Writer, names []string, cfg Config) error {
	var ds *multiping.Dataset
	for _, name := range names {
		if campaignFigures[name] && ds == nil {
			d, n, err := RunCampaign(cfg)
			if err != nil {
				return err
			}
			n.Close()
			ds = d
		}
		if err := dispatch(w, name, cfg, ds); err != nil {
			return err
		}
	}
	return nil
}

// dispatch prints one experiment; ds is the campaign dataset when name
// is one of campaignFigures.
func dispatch(w io.Writer, name string, cfg Config, ds *multiping.Dataset) error {
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
		duration, interval, _ := cfg.campaign()
		Figure9(w, s, ds, duration, interval)
	case "fig10a":
		Figure10a(w, ds)
	case "fig10b":
		// Disjointness characterizes the deployment itself, so it runs
		// on an intact network rather than the post-campaign state
		// (which still carries the long-running circuit outages).
		n, _, err := buildNetworkCfg(cfg)
		if err != nil {
			return err
		}
		defer n.Close()
		Figure10b(w, s, n)
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
