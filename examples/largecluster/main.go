// Large-cluster comparison: run Mudi against the baseline systems on a
// bigger simulated fleet (default 100 GPUs / 200 tasks; pass -paper for
// the full 1000-GPU/5000-task configuration of §7.1) and print the
// Fig. 8/9-style comparison.
//
// The fleet size is free-form: -devices 10000 -tasks 20000 runs a
// ten-thousand-device cluster, where each control window steps the
// devices in parallel lanes (one per 64 devices, up to GOMAXPROCS,
// unless -shards pins the count) and applies their cross-lane effects
// at the window's barrier (see DESIGN.md §13). At that scale restrict the sweep with -policies mudi, or
// compare two with -policies mudi,gslice.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"mudi"
)

func main() {
	paper := flag.Bool("paper", false, "use the paper's 1000-GPU / 5000-task scale (overrides -devices/-tasks/-gap)")
	devices := flag.Int("devices", 100, "GPU count")
	tasks := flag.Int("tasks", 200, "training-task arrivals")
	gap := flag.Float64("gap", 2.0, "mean arrival gap in seconds")
	shards := flag.Int("shards", 0, "event-engine shard lanes: 0 or negative = auto, N = that many lanes")
	policies := flag.String("policies", "mudi,gslice,gpulets,muxflow", "comma-separated policies to compare (first is the comparison base)")
	profile := flag.Bool("profile", false, "record engine self-profiling timelines and print the per-phase wall-clock breakdown (drain/apply)")
	flag.Parse()

	d, n, g := *devices, *tasks, *gap
	if *paper {
		d, n, g = 1000, 5000, 0.8
	}
	names := strings.Split(*policies, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	if err := run(os.Stdout, d, n, g, *shards, names, *profile); err != nil {
		log.Fatal(err)
	}
}

// run compares the named policies on a fleet of the given size;
// factored out of main so tests can drive a smaller cluster.
func run(w io.Writer, devices, tasks int, gap float64, shards int, names []string, profile bool) error {
	sys, err := mudi.NewSystem(mudi.SystemConfig{Seed: 11})
	if err != nil {
		return fmt.Errorf("offline pipeline: %w", err)
	}
	arrivals, err := mudi.PhillyArrivals(tasks, gap, 0.002, 11)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}

	type row struct {
		name string
		res  *mudi.Result
	}
	var rows []row
	for _, name := range names {
		var policy mudi.Policy
		if name != "mudi" {
			policy, err = sys.BaselinePolicy(mudi.BaselineID(name))
			if err != nil {
				return fmt.Errorf("baseline %s: %w", name, err)
			}
		}
		res, err := sys.Simulate(mudi.SimOptions{
			Policy:    policy,
			Devices:   devices,
			Arrivals:  arrivals,
			Shards:    shards,
			Timelines: profile,
		})
		if err != nil {
			return fmt.Errorf("simulate %s: %w", name, err)
		}
		rows = append(rows, row{name, res})
		fmt.Fprintf(w, "finished %-8s  violation %.2f%%  meanCT %.0fs  makespan %.0fs  completed %d/%d\n",
			name, res.MeanSLOViolation()*100, res.MeanCT(), res.Makespan, res.Completed, res.Admitted)
		if profile {
			printProfile(w, name, res.Timelines)
		}
	}
	if len(rows) < 2 {
		return nil
	}

	base := rows[0]
	label := base.name
	if label == "mudi" {
		label = "Mudi"
	}
	fmt.Fprintf(w, "\nrelative to %s (paper: CT up to 2.27x vs GSLICE, violations up to 6x lower):\n", label)
	for _, r := range rows[1:] {
		violRatio := 0.0
		if base.res.MeanSLOViolation() > 0 {
			violRatio = r.res.MeanSLOViolation() / base.res.MeanSLOViolation()
		}
		fmt.Fprintf(w, "  %-8s violations %.2fx, mean CT %.2fx, makespan %.2fx\n",
			r.name, violRatio, r.res.MeanCT()/base.res.MeanCT(), r.res.Makespan/base.res.Makespan)
	}
	return nil
}

// printProfile summarizes the engine self-profiling series: total
// wall-clock per barrier phase (the dominant one is where engine time
// goes as the fleet scales), mail volume, peak lane imbalance, the
// lanes the lane workers stepped and how long the run's goroutine
// waited for them. The sums come from each series' coarsest level,
// which retains the longest history.
func printProfile(w io.Writer, name string, tls []mudi.Timeline) {
	type agg struct {
		sum, max float64
		count    int64
	}
	totals := map[string]agg{}
	for _, tl := range tls {
		kind, err := mudi.ParseTimelineKind(tl.Kind)
		if err != nil || !kind.Profile() || len(tl.Levels) == 0 {
			continue
		}
		var a agg
		for _, b := range tl.Levels[len(tl.Levels)-1].Buckets {
			a.sum += b.Sum
			a.count += b.Count
			if b.Max > a.max {
				a.max = b.Max
			}
		}
		totals[tl.Kind] = a
	}
	phases := []string{"engine_drain_ms", "engine_apply_ms"}
	var engine float64
	for _, ph := range phases {
		engine += totals[ph].sum
	}
	fmt.Fprintf(w, "  %s engine profile over %d windows: %.0f ms total\n",
		name, totals["engine_window_ms"].count, totals["engine_window_ms"].sum)
	for _, ph := range phases {
		a, share := totals[ph], 0.0
		if engine > 0 {
			share = a.sum / engine * 100
		}
		fmt.Fprintf(w, "    %-16s %8.0f ms  (%5.1f%% of phases, peak %.2f ms/window)\n",
			strings.TrimSuffix(strings.TrimPrefix(ph, "engine_"), "_ms"), a.sum, share, a.max)
	}
	if a, ok := totals["engine_mail"]; ok {
		fmt.Fprintf(w, "    %-16s %8.0f events (peak %.0f/window)\n", "mail", a.sum, a.max)
	}
	if a, ok := totals["engine_lane_imbalance"]; ok {
		fmt.Fprintf(w, "    %-16s peak %.0f devices between busiest and idlest lane\n", "imbalance", a.max)
	}
	if a, ok := totals["engine_helper_lanes"]; ok {
		fmt.Fprintf(w, "    %-16s %8.0f lanes stepped by lane workers, not the run's goroutine (peak %.0f/window)\n", "helper lanes", a.sum, a.max)
	}
	if a, ok := totals["engine_step_wait_ms"]; ok {
		fmt.Fprintf(w, "    %-16s %8.0f ms waiting for lanes stepped elsewhere (peak %.2f ms/window)\n", "step wait", a.sum, a.max)
	}
}
