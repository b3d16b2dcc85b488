package cluster

import (
	"strings"
	"testing"

	"mudi/internal/core"
	"mudi/internal/model"
	"mudi/internal/perf"
	"mudi/internal/sched"
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
	mudi := mustBuild(t, oracle, 7)
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
	mudi := mustBuild(t, oracle, 7)
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
		mudi := mustBuild(t, oracle, 9)
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
	mudi := mustBuild(t, oracle, 7)
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
	mudi := mustBuild(t, oracle, 1)
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

// tierRecorder records every SelectDevice offer and places on the first
// offered view with room under maxTrain, declining otherwise, so a full
// tier makes the cluster fall through to the next one.
type tierRecorder struct {
	scriptedPolicy
	maxTrain int
	offers   [][]core.DeviceView
}

func (p *tierRecorder) SelectDevice(_ model.TrainingTask, views []core.DeviceView, _ map[string]core.Measurer) (string, bool) {
	p.offers = append(p.offers, append([]core.DeviceView(nil), views...))
	for i := range views {
		if core.Eligible(&views[i], p.maxTrain) {
			return views[i].ID, true
		}
	}
	return "", false
}

// TestClassSelectOffersOneTier: class-aware placement hands the policy
// one class-score tier per SelectDevice call, most preferred first, and
// never offers a critical-class device or one already at its class's
// co-location budget.
func TestClassSelectOffersOneTier(t *testing.T) {
	budget := map[model.SLOClass]int{
		model.ClassStandard:   1,
		model.ClassSheddable:  2,
		model.ClassBatch:      3,
		model.ClassBackground: 4,
	}
	pol := &tierRecorder{
		scriptedPolicy: scriptedPolicy{dec: core.Decision{Batch: 16, Delta: 0.5, Feasible: true}},
		maxTrain:       1,
	}
	sim, err := New(Options{
		Policy:   pol,
		Oracle:   perf.NewOracle(7),
		Seed:     7,
		Devices:  6,
		Arrivals: smallArrivals(t, 12, 7),
		Services: classedServices(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pol.offers) == 0 {
		t.Fatal("the policy was never asked to place")
	}
	tiers := map[float64]bool{}
	for i, views := range pol.offers {
		if len(views) == 0 {
			t.Fatalf("offer %d is empty", i)
		}
		var tier float64
		for j := range views {
			v := &views[j]
			if v.ServiceClass == model.ClassCritical {
				t.Fatalf("offer %d includes critical-class device %s", i, v.ID)
			}
			if b, ok := budget[v.ServiceClass]; !ok || len(v.ResidentTasks) >= b {
				t.Fatalf("offer %d includes %s (class %q, %d residents) at or past its budget",
					i, v.ID, v.ServiceClass, len(v.ResidentTasks))
			}
			sc, ok := sched.ClassScore(v.ServiceClass, len(v.ResidentTasks))
			if !ok {
				t.Fatalf("offer %d includes vetoed device %s", i, v.ID)
			}
			if j == 0 {
				tier = sc
			} else if sc != tier {
				t.Fatalf("offer %d mixes class-score tiers %v and %v", i, tier, sc)
			}
		}
		tiers[tier] = true
	}
	t.Logf("%d offers, tiers %v", len(pol.offers), tiers)
	if len(tiers) < 2 {
		t.Fatalf("every offer came from one tier (%v); the run never fell through", tiers)
	}
}
