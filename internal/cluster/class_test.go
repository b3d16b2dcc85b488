package cluster

import (
	"strings"
	"testing"

	"mudi/internal/model"
	"mudi/internal/perf"
	"mudi/internal/span"
	"mudi/internal/trace"
)

// classedServices returns the Tab. 1 catalog with SLO classes assigned
// in deploy order. The round-robin deployment then spreads every class
// across the fleet.
func classedServices() []model.InferenceService {
	svcs := model.Services()
	classes := []model.SLOClass{
		model.ClassSheddable, model.ClassStandard, model.ClassCritical,
		model.ClassCritical, model.ClassStandard, model.ClassBackground,
	}
	for i := range svcs {
		svcs[i].Class = classes[i%len(classes)]
	}
	return svcs
}

// TestClassAwareShedsBurst: under a sustained 4× burst, admission
// control sheds load — but only from shed-eligible classes — and the
// class roll-ups land in the Result and its Summary.
func TestClassAwareShedsBurst(t *testing.T) {
	oracle := perf.NewOracle(7)
	mudi := buildMudi(t, oracle, 7)
	arrivals := smallArrivals(t, 8, 7)
	sim, err := New(Options{
		Policy:   mudi,
		Oracle:   oracle,
		Seed:     7,
		Devices:  6,
		Arrivals: arrivals,
		Services: classedServices(),
		Bursts:   []trace.Burst{{Start: 20, End: 80, Factor: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ShedWindows == 0 || len(res.ShedRequests) == 0 {
		t.Fatalf("4x burst shed nothing: windows=%d requests=%v", res.ShedWindows, res.ShedRequests)
	}
	for cls, req := range res.ShedRequests {
		c, err := model.ParseSLOClass(cls)
		if err != nil {
			t.Fatalf("shed class %q: %v", cls, err)
		}
		if !c.SheddableLoad() {
			t.Fatalf("shed %v requests from non-shed-eligible class %v", req, c)
		}
		if req <= 0 {
			t.Fatalf("non-positive shed accounting for %v: %v", c, req)
		}
	}
	if len(res.ClassViolation) == 0 {
		t.Fatal("class-aware run produced no per-class violation roll-up")
	}
	for cls, rate := range res.ClassViolation {
		if _, err := model.ParseSLOClass(cls); err != nil {
			t.Fatalf("violation class %q: %v", cls, err)
		}
		if rate < 0 || rate > 1 {
			t.Fatalf("class %s violation rate %v outside [0,1]", cls, rate)
		}
	}
	sum := res.Summary()
	for _, line := range []string{"class_slo_violation=", "shed_requests=", "shed_windows="} {
		if !strings.Contains(sum, line) {
			t.Fatalf("Summary missing %q:\n%s", line, sum)
		}
	}
}

// TestClasslessSummaryHasNoClassLines: a classless run — even a bursty
// one — must not leak class fields into the Result or its canonical
// Summary (the byte-identity contract for pre-class consumers).
func TestClasslessSummaryHasNoClassLines(t *testing.T) {
	oracle := perf.NewOracle(7)
	mudi := buildMudi(t, oracle, 7)
	arrivals := smallArrivals(t, 8, 7)
	sim, err := New(Options{
		Policy:   mudi,
		Oracle:   oracle,
		Seed:     7,
		Devices:  6,
		Arrivals: arrivals,
		Bursts:   []trace.Burst{{Start: 20, End: 80, Factor: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ShedWindows != 0 || res.ShedRequests != nil || res.ClassViolation != nil {
		t.Fatalf("classless run grew class fields: %+v", res)
	}
	sum := res.Summary()
	for _, line := range []string{"class_slo_violation", "shed_requests", "shed_windows"} {
		if strings.Contains(sum, line) {
			t.Fatalf("classless Summary contains %q:\n%s", line, sum)
		}
	}
}

// TestClassAwareDeterminism: identical seeds yield identical canonical
// summaries with class steering and shedding active.
func TestClassAwareDeterminism(t *testing.T) {
	run := func() *Result {
		oracle := perf.NewOracle(9)
		mudi := buildMudi(t, oracle, 9)
		arrivals := smallArrivals(t, 8, 9)
		sim, err := New(Options{
			Policy:   mudi,
			Oracle:   oracle,
			Seed:     9,
			Devices:  6,
			Arrivals: arrivals,
			Services: classedServices(),
			Bursts:   []trace.Burst{{Start: 20, End: 60, Factor: 4}},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Summary() != b.Summary() {
		t.Fatal("class-aware summaries differ between identical runs")
	}
}

// TestShedFeedsAttributor: with an Attributor wired, shed windows
// surface as per-class shed accounting in the SLOReport.
func TestShedFeedsAttributor(t *testing.T) {
	oracle := perf.NewOracle(7)
	mudi := buildMudi(t, oracle, 7)
	arrivals := smallArrivals(t, 8, 7)
	sim, err := New(Options{
		Policy:   mudi,
		Oracle:   oracle,
		Seed:     7,
		Devices:  6,
		Arrivals: arrivals,
		Services: classedServices(),
		Bursts:   []trace.Burst{{Start: 20, End: 80, Factor: 4}},
		Log:      span.NewLog(0, 0, span.NewAttributor(0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SLOReport == nil {
		t.Fatal("no SLO report")
	}
	if len(res.SLOReport.Classes) == 0 {
		t.Fatal("class-aware report has no per-class rows")
	}
	var shedTotal float64
	for _, c := range res.SLOReport.Classes {
		shedTotal += c.ShedRequests
	}
	var resTotal float64
	for _, v := range res.ShedRequests {
		resTotal += v
	}
	if shedTotal != resTotal {
		t.Fatalf("report sheds %v != result sheds %v", shedTotal, resTotal)
	}
}

// TestInvalidServiceClassRejected pins the construction-time check.
func TestInvalidServiceClassRejected(t *testing.T) {
	oracle := perf.NewOracle(1)
	mudi := buildMudi(t, oracle, 1)
	svcs := model.Services()
	svcs[0].Class = model.SLOClass(42)
	_, err := New(Options{
		Policy:   mudi,
		Oracle:   oracle,
		Seed:     1,
		Devices:  2,
		Services: svcs,
	})
	if err == nil {
		t.Fatal("invalid service class accepted")
	}
}
