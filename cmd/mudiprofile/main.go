// Command mudiprofile runs the Offline Profiler against the synthetic
// testbed and dumps the fitted piecewise-linear latency curves, the
// interference-model selection, and (optionally) the raw samples.
//
// Usage:
//
//	mudiprofile                       # profile every service
//	mudiprofile -service GPT2 -samples
//	mudiprofile -service BERT -coloc YOLOv5 -batch 128
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mudi/internal/atomicio"
	"mudi/internal/model"
	"mudi/internal/perf"
	"mudi/internal/predictor"
	"mudi/internal/profiler"
	"mudi/internal/report"
	"mudi/internal/xrand"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mudiprofile: %v\n", err)
		os.Exit(1)
	}
}

// run executes the tool against the given arguments, writing output to
// stdout; factored out of main for testability.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mudiprofile", flag.ContinueOnError)
	var (
		serviceFlag = fs.String("service", "", "profile only this service (default: all)")
		colocFlag   = fs.String("coloc", "", "profile only this co-located training task (default: solo + observed)")
		batchFlag   = fs.Int("batch", 0, "profile only this batch size (default: all)")
		samplesFlag = fs.Bool("samples", false, "also dump the raw latency samples")
		seedFlag    = fs.Uint64("seed", 1, "testbed seed")
		saveFlag    = fs.String("save", "", "write the fitted profiles to this JSON file")
		loadFlag    = fs.String("load", "", "load profiles from this JSON file instead of profiling")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	oracle := perf.NewOracle(*seedFlag)
	prof := profiler.New(oracle, xrand.New(*seedFlag+100))

	services := model.Services()
	if *serviceFlag != "" {
		svc, ok := model.ServiceByName(*serviceFlag)
		if !ok {
			return fmt.Errorf("unknown service %q", *serviceFlag)
		}
		services = []model.InferenceService{svc}
	}
	var batches []int
	if *batchFlag > 0 {
		batches = []int{*batchFlag}
	}
	var colocSets [][]model.TrainingTask
	if *colocFlag != "" {
		task, ok := model.TaskByName(*colocFlag)
		if !ok {
			return fmt.Errorf("unknown training task %q", *colocFlag)
		}
		colocSets = [][]model.TrainingTask{{task}}
	}

	pred := predictor.New(*seedFlag)
	var loaded map[string][]profiler.Profile
	if *loadFlag != "" {
		f, err := os.Open(*loadFlag)
		if err != nil {
			return err
		}
		all, err := profiler.LoadProfiles(f)
		f.Close()
		if err != nil {
			return err
		}
		loaded = make(map[string][]profiler.Profile)
		for _, p := range all {
			loaded[p.Service] = append(loaded[p.Service], p)
		}
	}
	var toSave []profiler.Profile
	for _, svc := range services {
		var profiles []profiler.Profile
		var err error
		if loaded != nil {
			profiles = loaded[svc.Name]
			if len(profiles) == 0 {
				continue
			}
		} else {
			profiles, err = prof.ProfileService(svc.Name, batches, colocSets)
			if err != nil {
				return err
			}
			toSave = append(toSave, profiles...)
		}
		tab := report.NewTable(fmt.Sprintf("%s fitted curves (SLO %.0f ms)", svc.Name, svc.SLOms),
			"batch", "co-location", "k1", "k2", "Δ0", "l0 (ms)")
		for _, p := range profiles {
			coloc := "solo"
			if len(p.Coloc) > 0 {
				coloc = ""
				for i, t := range p.Coloc {
					if i > 0 {
						coloc += "+"
					}
					coloc += t.Name
				}
			}
			tab.AddRow(p.Batch, coloc, p.Curve.K1, p.Curve.K2, p.Curve.Cutoff, p.Curve.L0)
		}
		if err := tab.WriteASCII(stdout); err != nil {
			return err
		}
		if *samplesFlag {
			st := report.NewTable(svc.Name+" raw samples", "batch", "co-location", "GPU%", "P99 (ms)")
			for _, p := range profiles {
				coloc := "solo"
				if len(p.Coloc) > 0 {
					coloc = p.Coloc[0].Name
				}
				for _, sm := range p.Samples {
					st.AddRow(p.Batch, coloc, fmt.Sprintf("%.0f%%", sm.Delta*100), sm.Latency)
				}
			}
			if err := st.WriteASCII(stdout); err != nil {
				return err
			}
		}
		if err := pred.Train(profiles); err != nil {
			return err
		}
		names, err := pred.ModelNames(svc.Name)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# %s interference models: k1=%s k2=%s Δ0=%s l0=%s\n\n",
			svc.Name, names[0], names[1], names[2], names[3])
	}
	if *saveFlag != "" && len(toSave) > 0 {
		if err := atomicio.WriteFile(*saveFlag, func(w io.Writer) error {
			return profiler.SaveProfiles(w, toSave)
		}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# saved %d profiles to %s\n", len(toSave), *saveFlag)
	}
	return nil
}
