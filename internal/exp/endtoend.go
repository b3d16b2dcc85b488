package exp

import (
	"fmt"

	"mudi/internal/baselines"
	"mudi/internal/cluster"
	"mudi/internal/core"
	"mudi/internal/model"
	"mudi/internal/report"
	"mudi/internal/runner"
	"mudi/internal/stats"
	"mudi/internal/xrand"
)

// Fig8 reproduces the per-service SLO violation rates across systems.
func Fig8(s *Suite) (*report.Table, error) {
	results, err := s.RunAll()
	if err != nil {
		return nil, err
	}
	if s.Config.Scale == ScaleSmall {
		// The Optimal baseline is exhaustive; include it only at small
		// scale where it stays cheap.
		res, err := s.Run("optimal")
		if err != nil {
			return nil, err
		}
		results["optimal"] = res
	}
	t := report.NewTable("Fig. 8: SLO violation rate per inference service",
		append([]string{"system"}, serviceOrder...)...)
	for _, name := range policyOrder {
		res, ok := results[name]
		if !ok {
			continue
		}
		row := []any{name}
		for _, svc := range serviceOrder {
			row = append(row, report.Pct(res.SLOViolation[svc]))
		}
		t.AddRow(row...)
	}
	if mudi, ok := results["mudi"]; ok {
		t.AddNote("mudi mean %s (paper: 0.5%% physical / 1.2%% simulated; up to 6x lower than baselines)",
			report.Pct(mudi.MeanSLOViolation()))
	}
	return t, nil
}

// Fig9 reproduces training efficiency: CT, waiting time, makespan.
func Fig9(s *Suite) (*report.Table, error) {
	results, err := s.RunAll()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 9: training efficiency",
		"system", "mean CT (s)", "P90 CT (s)", "mean wait (s)", "makespan (s)", "completed")
	var mudiCT float64
	for _, name := range policyOrder {
		res, ok := results[name]
		if !ok {
			continue
		}
		if name == "mudi" {
			mudiCT = res.MeanCT()
		}
		t.AddRow(name, res.MeanCT(), stats.Percentile(res.CTs, 90), res.MeanWaiting(), res.Makespan, res.Completed)
	}
	for _, name := range []string{"gslice", "gpulets", "muxflow"} {
		if res, ok := results[name]; ok && mudiCT > 0 {
			t.AddNote("CT vs %s: %s (paper: up to 2.27x vs GSLICE, 1.49x vs gpulets, 1.48x vs MuxFlow)",
				name, report.Ratio(res.MeanCT()/mudiCT))
		}
	}
	return t, nil
}

// Fig10 reproduces the average SM/memory utilization comparison.
func Fig10(s *Suite) (*report.Table, error) {
	results, err := s.RunAll()
	if err != nil {
		return nil, err
	}
	// Average over a window common to all systems so a faster system is
	// not penalized for finishing (and idling) sooner.
	window := 0.0
	for _, res := range results {
		if res.Makespan > window {
			window = res.Makespan
		}
	}
	t := report.NewTable("Fig. 10: average GPU utilization (common window)",
		"system", "SM util", "mem util", "SM util (2nd half)")
	var mudiSM, bestBaseSM float64
	for _, name := range policyOrder {
		res, ok := results[name]
		if !ok {
			continue
		}
		sm := res.SMUtil.TimeAverage(0, window)
		mem := res.MemUtil.TimeAverage(0, window)
		smLate := res.SMUtil.TimeAverage(window/2, window)
		t.AddRow(name, report.Pct(sm), report.Pct(mem), report.Pct(smLate))
		if name == "mudi" {
			mudiSM = sm
		} else if sm > bestBaseSM {
			bestBaseSM = sm
		}
	}
	if bestBaseSM > 0 {
		t.AddNote("mudi SM util vs best baseline: %s (paper: up to 60%% SM, +42%% over baselines under sustained load)",
			report.Ratio(mudiSM/bestBaseSM))
	}
	return t, nil
}

// Fig13 reproduces the two ablations: cluster-level co-location only
// (Tuner disabled) and device-level control only (random placement).
// The full run and both ablation cells are independent simulations —
// each owns its Mudi instance — so they fan across the pool.
func Fig13(s *Suite) (*report.Table, error) {
	devices, _, _, _ := s.Config.sizes()
	ablation := func(build func(*core.Mudi) *ablationPolicy) func() (*cluster.Result, error) {
		return func() (*cluster.Result, error) {
			m, err := core.Build(s.Oracle, s.Config.Seed, core.MudiConfig{})
			if err != nil {
				return nil, err
			}
			return s.Config.simulate(cluster.Options{
				Policy: build(m), Oracle: s.Oracle,
				Devices: devices, Arrivals: s.Arrivals,
			})
		}
	}
	cells := []runner.Cell[*cluster.Result]{
		// The full run goes through the suite cache so Fig. 8–10 and
		// Fig. 18 reuse it (and its BO iteration counts).
		{Key: "full", Run: func() (*cluster.Result, error) { return s.Run("mudi") }},
		// (a) Cluster-only: Mudi's interference-aware placement, but the
		// predictive Tuner replaced by a plain feedback controller (the
		// same device-control mechanism the baselines get) — "we disabled
		// the Tuner service under Mudi".
		{Key: "cluster-only", Run: ablation(func(m *core.Mudi) *ablationPolicy {
			return &ablationPolicy{Mudi: m, name: "mudi-cluster-only", place: m, control: baselines.NewGSLICE()}
		})},
		// (b) Device-only: random placement + Mudi's device control.
		{Key: "device-only", Run: ablation(func(m *core.Mudi) *ablationPolicy {
			return &ablationPolicy{Mudi: m, name: "mudi-device-only", place: baselines.NewRandom(xrand.New(s.Config.Seed+31), 1), control: m}
		})},
	}
	ress, err := runCells(s.Config, s.pool, cells)
	if err != nil {
		return nil, fmt.Errorf("exp: fig13: %w", err)
	}
	full, resA, resB := ress[0], ress[1], ress[2]

	t := report.NewTable("Fig. 13: ablations (normalized to full Mudi)",
		"variant", "SLO violation", "mean CT", "makespan", "CT vs mudi")
	add := func(name string, r *cluster.Result) {
		ratio := 0.0
		if full.MeanCT() > 0 {
			ratio = r.MeanCT() / full.MeanCT()
		}
		t.AddRow(name, report.Pct(r.MeanSLOViolation()), r.MeanCT(), r.Makespan, report.Ratio(ratio))
	}
	add("mudi (full)", full)
	add("cluster-only (tuner off)", resA)
	add("device-only (random placement)", resB)
	t.AddNote("paper: cluster-only still beats baselines but raises violations 1.65–2.43x; device-only violation 1.1x of full Mudi")
	return t, nil
}

// ablationPolicy is a Fig. 13 ablation: Mudi with one layer swapped
// out. Placement goes to place and device control to control. The
// embedded Mudi keeps learning online from every co-location either
// way.
type ablationPolicy struct {
	*core.Mudi
	name           string
	place, control core.Policy
}

func (p *ablationPolicy) Name() string { return p.name }

func (p *ablationPolicy) SelectDevice(task model.TrainingTask, views []core.DeviceView, m map[string]core.Measurer) (string, bool) {
	return p.place.SelectDevice(task, views, m)
}

func (p *ablationPolicy) Configure(view core.DeviceView, m core.Measurer) (core.Decision, error) {
	return p.control.Configure(view, m)
}

// Fig15 reproduces the load-sensitivity sweep: violation and CT at
// 1×, 2×, 3×, 4× inference load for every system. Every (system, load)
// pair is one cell with its own freshly-built policy — no cross-cell
// online learning, no shared mutable state — so the whole sweep fans
// across the pool and merges in (system, load) order.
func Fig15(s *Suite) (*report.Table, error) {
	devices, _, _, _ := s.Config.sizes()
	loads := []float64{1, 2, 3, 4}
	if s.Config.Scale == ScaleSmall {
		loads = []float64{1, 2, 3}
	}
	names := []string{"mudi", "gslice", "gpulets", "muxflow"}
	var cells []runner.Cell[*cluster.Result]
	for _, name := range names {
		for _, load := range loads {
			name, load := name, load
			cells = append(cells, runner.Cell[*cluster.Result]{
				Key: fmt.Sprintf("%s@%gx", name, load),
				Run: func() (*cluster.Result, error) {
					policy, err := s.freshPolicy(name)
					if err != nil {
						return nil, err
					}
					return s.Config.simulate(cluster.Options{
						Policy: policy, Oracle: s.Oracle,
						Devices: devices, Arrivals: s.Arrivals, LoadFactor: load,
					})
				},
			})
		}
	}
	ress, err := runCells(s.Config, s.pool, cells)
	if err != nil {
		return nil, fmt.Errorf("exp: fig15: %w", err)
	}
	t := report.NewTable("Fig. 15: sensitivity to inference load",
		"system", "load", "SLO violation", "mean CT (s)", "paused episodes")
	i := 0
	for _, name := range names {
		for _, load := range loads {
			res := ress[i]
			i++
			t.AddRow(name, fmt.Sprintf("%gx", load), report.Pct(res.MeanSLOViolation()), res.MeanCT(), res.PausedEpisodes)
		}
	}
	t.AddNote("paper: all systems degrade with load; Mudi stays lowest with sub-linear violation growth")
	return t, nil
}
