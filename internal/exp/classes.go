package exp

import (
	"fmt"
	"sort"

	"mudi/internal/cluster"
	"mudi/internal/model"
	"mudi/internal/perf"
	"mudi/internal/report"
	"mudi/internal/runner"
	"mudi/internal/trace"
)

// FlashCrowdClassMix is the mixed-SLO assignment for the class
// experiment, keyed by catalog service name: the image front-ends are
// expendable under a flash crowd, the language services are the revenue
// path, and detection runs as scavenger load.
var FlashCrowdClassMix = map[string]model.SLOClass{
	"ResNet50":  model.ClassSheddable,
	"Inception": model.ClassStandard,
	"GPT2":      model.ClassCritical,
	"BERT":      model.ClassCritical,
	"RoBERTa":   model.ClassStandard,
	"YOLOS":     model.ClassBackground,
}

// flashCrowdBursts is the shared overload episode: a sustained 4×
// flash crowd on every service.
func flashCrowdBursts() []trace.Burst {
	return []trace.Burst{{Start: 30, End: 150, Factor: 4}}
}

// classedFlashServices returns the catalog with FlashCrowdClassMix
// applied.
func classedFlashServices() []model.InferenceService {
	svcs := model.Services()
	for i := range svcs {
		svcs[i].Class = FlashCrowdClassMix[svcs[i].Name]
	}
	return svcs
}

// ClassesResults runs the flash-crowd workload twice under Mudi — once
// classless, once with FlashCrowdClassMix — and returns both results
// keyed "classless" / "classed". The two cells share the seed, arrival
// trace, and burst schedule; each builds a fresh policy instance, so
// the map is bit-identical at any Parallel setting.
func ClassesResults(cfg Config) (map[string]*cluster.Result, error) {
	oracle := perf.NewOracle(cfg.Seed)
	devices, tasks, gap, iterScale := cfg.sizes()
	arrivals, err := trace.PhillyTrace(trace.PhillyConfig{
		Count:      tasks,
		MeanGapSec: gap,
		ScaleIters: iterScale,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	variants := []struct {
		key      string
		services []model.InferenceService
	}{
		{"classless", nil}, // nil selects the unclassed catalog
		{"classed", classedFlashServices()},
	}
	cells := make([]runner.Cell[*cluster.Result], len(variants))
	for i, v := range variants {
		v := v
		cells[i] = runner.Cell[*cluster.Result]{Key: v.key, Run: func() (*cluster.Result, error) {
			policy, err := BuildMudi(oracle, cfg.Seed, 1)
			if err != nil {
				return nil, err
			}
			return cfg.simulate(cluster.Options{
				Policy:   policy,
				Oracle:   oracle,
				Devices:  devices,
				Services: v.services,
				Arrivals: arrivals,
				Bursts:   flashCrowdBursts(),
			})
		}}
	}
	ress, err := runCells(cfg, runner.New(cfg.Parallel), cells)
	if err != nil {
		return nil, fmt.Errorf("exp: classes: %w", err)
	}
	out := make(map[string]*cluster.Result, len(variants))
	for i, v := range variants {
		out[v.key] = ress[i]
	}
	return out, nil
}

// classlessRateByClass re-aggregates a classless run's per-service
// violation rates under the class mix — the "what the class would have
// suffered" baseline the classed run is compared against.
func classlessRateByClass(res *cluster.Result) map[string]float64 {
	sums := make(map[string]float64)
	counts := make(map[string]float64)
	for name, rate := range res.SLOViolation {
		cls := FlashCrowdClassMix[name].String()
		if cls == "" {
			continue
		}
		sums[cls] += rate
		counts[cls]++
	}
	out := make(map[string]float64, len(sums))
	for cls, sum := range sums {
		out[cls] = sum / counts[cls]
	}
	return out
}

// Classes renders the mixed-SLO flash-crowd comparison: per class, the
// violation rate a classless run suffers versus the class-aware run,
// plus the requests admission control shed to get there.
func Classes(cfg Config) (*report.Table, error) {
	results, err := ClassesResults(cfg)
	if err != nil {
		return nil, err
	}
	classless, classed := results["classless"], results["classed"]
	baseline := classlessRateByClass(classless)
	tab := report.NewTable("SLO classes under a 4x flash crowd (Mudi, classless vs class-aware)",
		"class", "services", "classless_viol", "classed_viol", "shed_requests")
	// Group service names per class for the row labels.
	byClass := make(map[string][]string)
	for name, cls := range FlashCrowdClassMix {
		byClass[cls.String()] = append(byClass[cls.String()], name)
	}
	for _, cls := range model.SLOClasses() {
		key := cls.String()
		names := byClass[key]
		sort.Strings(names)
		if len(names) == 0 {
			continue
		}
		label := names[0]
		for _, n := range names[1:] {
			label += "+" + n
		}
		tab.AddRow(key, label,
			fmt.Sprintf("%.4f", baseline[key]),
			fmt.Sprintf("%.4f", classed.ClassViolation[key]),
			fmt.Sprintf("%.0f", classed.ShedRequests[key]))
	}
	tab.AddNote("same seed, arrivals, and burst schedule; admission control shed %d device-windows of sheddable/background load",
		classed.ShedWindows)
	tab.AddNote("classless_viol re-aggregates the classless run's per-service rates under the class mix")
	return tab, nil
}
