package exp

import (
	"fmt"

	"mudi/internal/cluster"
	"mudi/internal/core"
	"mudi/internal/perf"
	"mudi/internal/report"
	"mudi/internal/runner"
	"mudi/internal/trace/scenario"
)

// ScenarioResults runs every named workload scenario through the
// simulator under Mudi and returns the per-scenario results keyed by
// scenario name. Each scenario is one cell: it regenerates its trace
// from (name, Config.Seed), builds a fresh policy instance, and replays
// the trace — so results are bit-identical at any Parallel setting
// (the scenario determinism test pins exactly that).
func ScenarioResults(cfg Config) (map[string]*cluster.Result, error) {
	oracle := perf.NewOracle(cfg.Seed)
	names := scenario.Names()
	cells := make([]runner.Cell[*cluster.Result], len(names))
	for i, name := range names {
		name := name
		cells[i] = runner.Cell[*cluster.Result]{Key: name, Run: func() (*cluster.Result, error) {
			tr, err := scenario.Build(name, cfg.Seed)
			if err != nil {
				return nil, err
			}
			arrivals, err := tr.Arrivals()
			if err != nil {
				return nil, err
			}
			policy, err := core.Build(oracle, cfg.Seed, core.MudiConfig{})
			if err != nil {
				return nil, err
			}
			return cfg.simulate(cluster.Options{
				Policy:   policy,
				Oracle:   oracle,
				Devices:  tr.Header.Devices,
				Arrivals: arrivals,
				Replay:   tr,
			})
		}}
	}
	ress, err := runCells(cfg, runner.New(cfg.Parallel), cells)
	if err != nil {
		return nil, fmt.Errorf("exp: scenarios: %w", err)
	}
	out := make(map[string]*cluster.Result, len(names))
	for i, name := range names {
		out[name] = ress[i]
	}
	return out, nil
}

// Scenarios renders the scenario validation sweep: every named workload
// scenario replayed under Mudi, one row per scenario.
func Scenarios(cfg Config) (*report.Table, error) {
	results, err := ScenarioResults(cfg)
	if err != nil {
		return nil, err
	}
	tab := report.NewTable("Scenario library (trace-v2 replay under Mudi)",
		"scenario", "devices", "tasks", "completed", "slo_viol", "mean_ct_s", "makespan_s")
	for _, sc := range scenario.All() {
		res := results[sc.Name]
		tab.AddRow(sc.Name, sc.Devices, res.Admitted, res.Completed,
			fmt.Sprintf("%.4f", res.MeanSLOViolation()),
			fmt.Sprintf("%.1f", res.MeanCT()),
			fmt.Sprintf("%.1f", res.Makespan))
	}
	tab.AddNote("each scenario regenerated from (name, seed=%d) and replayed as a trace-v2 workload", cfg.Seed)
	return tab, nil
}
