// Cohort-based arrival populations. A cohort is one submitter
// population — "research", "production-retrain", "batch-backfill" —
// with its own arrival intensity, task-size mix, and priority tier.
// Each cohort draws from its own xrand.DeriveSeed stream, so adding or
// removing a cohort never perturbs the others, and the merged trace is
// bit-reproducible at any worker count.
package trace

import (
	"fmt"
	"sort"

	"mudi/internal/model"
	"mudi/internal/xrand"
)

// Cohort describes one arrival population.
type Cohort struct {
	Name       string
	Weight     float64                     // share of the total task count
	MeanGapSec float64                     // mean inter-arrival within the cohort
	SizeMix    map[model.SizeClass]float64 // task-size preference; nil = catalog Frac
	Priority   int                         // queue priority override; 0 = size-class default
	BurstProb  float64                     // chance a submission clumps (gap × 0.1)
	// Class tags every submission from this cohort with an SLO class.
	// When set and Priority is zero, the queue priority is derived from
	// the class rank (critical outranks standard outranks batch...).
	Class model.SLOClass
}

func (c Cohort) validate(idx int) error {
	field := func(name string) string { return fmt.Sprintf("Cohorts[%d].%s", idx, name) }
	if c.Name == "" {
		return &ConfigError{Field: field("Name"), Value: c.Name, Reason: "must be non-empty"}
	}
	if c.Weight <= 0 || !isFinite(c.Weight) {
		return &ConfigError{Field: field("Weight"), Value: c.Weight, Reason: "must be finite and > 0"}
	}
	if c.MeanGapSec <= 0 || !isFinite(c.MeanGapSec) {
		return &ConfigError{Field: field("MeanGapSec"), Value: c.MeanGapSec, Reason: "must be finite and > 0 (negative duration)"}
	}
	for size, w := range c.SizeMix {
		if w < 0 || !isFinite(w) {
			return &ConfigError{Field: field("SizeMix"), Value: w, Reason: fmt.Sprintf("weight for size %v must be finite and >= 0", size)}
		}
	}
	if c.BurstProb < 0 || c.BurstProb > 1 || !isFinite(c.BurstProb) {
		return &ConfigError{Field: field("BurstProb"), Value: c.BurstProb, Reason: "must be in [0, 1]"}
	}
	if !c.Class.Valid() {
		return &ConfigError{Field: field("Class"), Value: int(c.Class), Reason: "unknown SLO class"}
	}
	return nil
}

// CohortConfig shapes a merged multi-cohort training arrival trace.
type CohortConfig struct {
	Cohorts    []Cohort
	Count      int     // total tasks across all cohorts
	ScaleIters float64 // multiplier on catalog TotalIters; 0 selects 1
	Seed       uint64
}

func (c CohortConfig) validate() error {
	if len(c.Cohorts) == 0 {
		return &ConfigError{Field: "Cohorts", Value: len(c.Cohorts), Reason: "empty cohort set: at least one population is required"}
	}
	if c.Count <= 0 {
		return &ConfigError{Field: "Count", Value: c.Count, Reason: "must be > 0"}
	}
	if c.ScaleIters < 0 || !isFinite(c.ScaleIters) {
		return &ConfigError{Field: "ScaleIters", Value: c.ScaleIters, Reason: "must be finite and >= 0 (0 selects 1)"}
	}
	seen := make(map[string]bool, len(c.Cohorts))
	for i, co := range c.Cohorts {
		if err := co.validate(i); err != nil {
			return err
		}
		if seen[co.Name] {
			return &ConfigError{Field: fmt.Sprintf("Cohorts[%d].Name", i), Value: co.Name, Reason: "duplicate cohort name"}
		}
		seen[co.Name] = true
	}
	return nil
}

// cohortCounts allocates Count tasks across cohorts by weight using the
// largest-remainder method — exact totals, no rounding drift.
func cohortCounts(cohorts []Cohort, count int) []int {
	total := 0.0
	for _, c := range cohorts {
		total += c.Weight
	}
	counts := make([]int, len(cohorts))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(cohorts))
	assigned := 0
	for i, c := range cohorts {
		exact := float64(count) * c.Weight / total
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = rem{idx: i, frac: exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(i, j int) bool {
		if rems[i].frac != rems[j].frac {
			return rems[i].frac > rems[j].frac
		}
		return rems[i].idx < rems[j].idx
	})
	for k := 0; assigned < count; k++ {
		counts[rems[k%len(rems)].idx]++
		assigned++
	}
	return counts
}

// cohortWeights resolves a cohort's task-choice weights over the
// catalog: the catalog Frac reweighted by the cohort's SizeMix.
func cohortWeights(catalog []model.TrainingTask, mix map[model.SizeClass]float64) []float64 {
	weights := make([]float64, len(catalog))
	any := false
	for i, task := range catalog {
		w := task.Frac
		if mix != nil {
			w *= mix[task.Size]
		}
		weights[i] = w
		if w > 0 {
			any = true
		}
	}
	if !any {
		// A mix that zeroes every class degenerates to the catalog Frac
		// rather than an unchoosable distribution.
		for i, task := range catalog {
			weights[i] = task.Frac
		}
	}
	return weights
}

// CohortTrace generates the merged arrival sequence. Each cohort's
// stream is drawn independently from DeriveSeed(seed, cohortIdx), then
// the streams are merged by submission time (cohort index breaking
// ties) and re-numbered sequentially.
func CohortTrace(cfg CohortConfig) ([]TaskArrival, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.ScaleIters == 0 {
		cfg.ScaleIters = 1
	}
	catalog := model.Tasks()
	counts := cohortCounts(cfg.Cohorts, cfg.Count)
	var merged []TaskArrival
	for ci, cohort := range cfg.Cohorts {
		rng := xrand.New(xrand.DeriveSeed(cfg.Seed, uint64(ci)))
		weights := cohortWeights(catalog, cohort.SizeMix)
		t := 0.0
		for i := 0; i < counts[ci]; i++ {
			gap := cohort.MeanGapSec
			if cohort.BurstProb > 0 && rng.Float64() < cohort.BurstProb {
				gap *= 0.1
			}
			t += rng.Exp(1 / gap)
			task := catalog[rng.Choice(weights)]
			iters := int(float64(task.TotalIters) * cfg.ScaleIters * rng.Range(0.7, 1.3))
			if iters < 1 {
				iters = 1
			}
			prio := cohort.Priority
			if prio == 0 && cohort.Class != model.ClassUnset {
				prio = cohort.Class.Rank()
			}
			merged = append(merged, TaskArrival{
				At: t, Task: task, Iters: iters, GPUsReq: 1,
				Cohort: cohort.Name, Priority: prio, Class: cohort.Class,
			})
		}
	}
	// Merge by time; the generating cohort's index breaks ties so the
	// order never depends on float coincidences alone.
	order := make(map[string]int, len(cfg.Cohorts))
	for i, c := range cfg.Cohorts {
		order[c.Name] = i
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].At != merged[j].At {
			return merged[i].At < merged[j].At
		}
		return order[merged[i].Cohort] < order[merged[j].Cohort]
	})
	for i := range merged {
		merged[i].ID = i
	}
	return merged, nil
}
