package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"mudi/internal/model"
	"mudi/internal/opt"
	"mudi/internal/perf"
	"mudi/internal/piecewise"
	"mudi/internal/predictor"
	"mudi/internal/profiler"
	"mudi/internal/xrand"
)

// referenceScore is the Device Selector's score computed the direct
// way, re-running the predictor for the device: eligibility, then the
// negated average slope weighted by the predicted leftover share.
func referenceScore(pred *predictor.Predictor, maxTrain int, task model.TrainingTask, v DeviceView) (float64, bool) {
	if v.ServiceName == "" || len(v.ResidentTasks) >= maxTrain || v.Paused {
		return 0, false
	}
	arch := task.Arch.Add(colocArch(v.ResidentTasks))
	slope, _, err := pred.AvgSlope(v.ServiceName, arch)
	if err != nil {
		return 0, false
	}
	var shareSum float64
	batches := model.BatchSizes()
	for _, b := range batches {
		curve, err := pred.PredictCurve(v.ServiceName, b, arch)
		if err != nil {
			continue
		}
		if v.QPS <= 0 || v.SLOms <= 0 {
			continue
		}
		res, err := opt.MinPartition(opt.ScaleRequest{
			QPS: v.QPS, Batch: b, SLO: v.SLOms, Latency: curve, MaxDelta: 0.9,
		})
		if err != nil || !res.Feasible {
			continue
		}
		shareSum += 1 - res.Delta
	}
	return (0.05 + shareSum/float64(len(batches))) / (1 + slope), true
}

// referenceSelect picks the highest reference score, ties to the
// smaller device ID.
func referenceSelect(pred *predictor.Predictor, maxTrain int, task model.TrainingTask, views []DeviceView) (string, bool) {
	best, bestScore := -1, 0.0
	for i, v := range views {
		s, ok := referenceScore(pred, maxTrain, task, v)
		if !ok {
			continue
		}
		if best < 0 || s > bestScore || (s == bestScore && v.ID < views[best].ID) {
			best, bestScore = i, s
		}
	}
	if best < 0 {
		return "", false
	}
	return views[best].ID, true
}

// lastScores re-scores the views of m's latest SelectDevice call for
// task through Eligible and its slope scorer, as one more call over the
// memo that selection left; a skipped view scores -1.
func lastScores(m *Mudi, task model.TrainingTask, views []DeviceView) []float64 {
	out := make([]float64, len(views))
	m.slope.begin()
	for i := range views {
		out[i] = -1
		if !Eligible(&views[i], m.cfg.MaxTrainPerGPU) {
			continue
		}
		if s, ok := m.slope.score(&task, &views[i]); ok {
			out[i] = s
		}
	}
	return out
}

// randomFleet draws n device views: mixed services (one the predictor
// never saw), 0–3 residents, paused devices, devices without a
// service, and non-positive QPS.
func randomFleet(rng *xrand.Rand, n int) []DeviceView {
	services := model.Services()
	tasks := model.Tasks()
	views := make([]DeviceView, n)
	for i := range views {
		v := DeviceView{ID: fmt.Sprintf("g%03d", i), FreeShare: rng.Float64()}
		if k := rng.Intn(len(services) + 1); k < len(services) {
			v.ServiceName, v.SLOms = services[k].Name, services[k].SLOms
			v.QPS = services[k].BaseQPS * rng.Range(0.2, 3)
		} else {
			v.ServiceName, v.SLOms, v.QPS = "Untrained", 100, 200
		}
		// Residents come from three tasks, so different resident lists
		// often share one Ψ sum (and so one memo entry).
		for r := rng.Intn(4); r > 0; r-- {
			v.ResidentTasks = append(v.ResidentTasks, tasks[rng.Intn(3)])
		}
		switch rng.Intn(10) {
		case 0:
			v.Paused = true
		case 1:
			v.ServiceName = ""
		case 2:
			v.QPS = 0
		case 3:
			v.QPS = -v.QPS
		}
		views[i] = v
	}
	return views
}

// withTwins appends copies of k random views under fresh IDs, every
// other one sorting before all randomFleet IDs and the rest after, and
// shuffles the fleet: a copied device scores exactly as its original,
// so the best score often ties and the tie rule decides the pick.
func withTwins(rng *xrand.Rand, views []DeviceView, k int) []DeviceView {
	for i, j := range rng.Perm(len(views))[:k] {
		v := views[j]
		if i%2 == 0 {
			v.ID = "a" + v.ID
		} else {
			v.ID = "z" + v.ID
		}
		views = append(views, v)
	}
	out := make([]DeviceView, len(views))
	for i, j := range rng.Perm(len(views)) {
		out[i] = views[j]
	}
	return out
}

// mutateFleet changes about a quarter of the views in place, the way
// a fleet moves between placements: a new QPS (sometimes zero or
// negative), a new SLO, a flipped Paused, or a resident added or
// removed (0 to maxTrain residents, so a full device turns ineligible).
// Resident lists are rebuilt, never edited, as twins share them.
func mutateFleet(rng *xrand.Rand, views []DeviceView, maxTrain int) {
	tasks := model.Tasks()
	for i := range views {
		if rng.Intn(4) != 0 {
			continue
		}
		v := &views[i]
		switch rng.Intn(5) {
		case 0:
			v.QPS = []float64{0, -1, v.QPS * rng.Range(0.5, 2)}[rng.Intn(3)]
		case 1:
			v.SLOms *= rng.Range(0.5, 2)
		case 2:
			v.Paused = !v.Paused
		case 3:
			if len(v.ResidentTasks) < maxTrain {
				v.ResidentTasks = append(slices.Clip(v.ResidentTasks), tasks[rng.Intn(len(tasks))])
			}
		case 4:
			if n := len(v.ResidentTasks); n > 0 {
				j := rng.Intn(n)
				v.ResidentTasks = slices.Delete(slices.Clone(v.ResidentTasks), j, j+1)
			}
		}
	}
}

// TestSelectDeviceMatchesReference checks the memoized Device Selector
// against the direct per-device scorer, which validates and solves
// every curve through opt.MinPartition: same pick, and every device's
// score bit-identical. It is a replay on one Mudi, so the memo carries
// over between calls. Each fleet is selected on four times, and
// between those selections views change their QPS, SLO, Paused flag
// and residents (mutateFleet), so one call's resolved entries must not
// leak into the next; many calls meet more (service, Ψ) keys than the
// per-call table holds. Between fleets the predictor learns random
// co-locations through ObserveColocation, and now and then trains on a
// fresh batch of offline profiles, and the reference always reads the
// current predictor. Each fleet holds twins of some of its devices, so
// some fleets' best score ties and the pick must take the smaller ID.
func TestSelectDeviceMatchesReference(t *testing.T) {
	const maxTrain = 3
	oracle := perf.NewOracle(10)
	m := mustBuild(t, oracle, 10, maxTrain)
	pred := m.Predictor()
	tasks := model.Tasks()
	services := model.Services()
	prof := profiler.New(oracle, xrand.New(1010))
	placed, untrained, moved, trained, tied, selections, repicked, overflowed := 0, 0, 0, 0, 0, 0, 0, 0
	for seed := uint64(1); seed <= 40; seed++ {
		rng := xrand.New(seed)
		views := withTwins(xrand.New(1000+seed), randomFleet(rng, 48), 8)
		task := tasks[rng.Intn(len(tasks))]
		prev := ""
		for round := 0; round < 4; round++ {
			if round > 0 {
				mutateFleet(rng, views, maxTrain)
			}
			selections++
			got, gotOK := m.SelectDevice(task, views, nil)
			want, wantOK := referenceSelect(pred, maxTrain, task, views)
			if got != want || gotOK != wantOK {
				t.Fatalf("seed %d round %d: SelectDevice = (%q, %v), reference = (%q, %v)", seed, round, got, gotOK, want, wantOK)
			}
			if len(m.slope.resolved) == maxResolved {
				overflowed++
			}
			if round > 0 && got != prev {
				repicked++
			}
			prev = got
			scores := lastScores(m, task, views)
			best, atBest := slices.Max(scores), 0
			for _, s := range scores {
				if s == best {
					atBest++
				}
			}
			if best >= 0 && atBest > 1 {
				tied++
			}
			for i, s := range scores {
				v := views[i]
				ref, ok := referenceScore(pred, maxTrain, task, v)
				if !ok {
					ref = -1
				}
				if math.Float64bits(s) != math.Float64bits(ref) {
					t.Fatalf("seed %d round %d device %s: score %v, reference %v", seed, round, v.ID, s, ref)
				}
				if v.ServiceName == "Untrained" && !v.Paused && len(v.ResidentTasks) < maxTrain {
					untrained++
				}
			}
			if gotOK {
				placed++
			}
		}

		// Teach the predictor before the next fleet.
		svc := services[rng.Intn(len(services))].Name
		residents := make([]model.TrainingTask, 1+rng.Intn(maxTrain))
		for i := range residents {
			residents[i] = tasks[rng.Intn(len(tasks))]
		}
		gen := pred.Generation(svc)
		if seed%10 == 0 {
			profiles, err := prof.ProfileService(svc, nil, [][]model.TrainingTask{residents})
			if err != nil {
				t.Fatal(err)
			}
			if err := pred.Train(profiles); err != nil {
				t.Fatal(err)
			}
			trained++
		} else {
			v := viewFor(svc, residents...)
			m.ObserveColocation(v, &oracleMeasurer{oracle: oracle, view: v, rng: xrand.New(seed)})
		}
		if pred.Generation(svc) != gen {
			moved++
		}
	}
	if placed == 0 {
		t.Fatal("no fleet placed the task")
	}
	if tied == 0 {
		t.Fatal("no fleet's best score tied; the tie rule went unexercised")
	}
	t.Logf("%d of %d selections tie for the best score; %d moved the pick after a fleet change; %d filled the %d-entry per-call table",
		tied, selections, repicked, overflowed, maxResolved)
	if overflowed == 0 {
		t.Fatal("no selection filled the per-call table; the overflow path went unexercised")
	}
	if repicked < 10 {
		t.Fatalf("only %d selections moved the pick after a fleet change; the changes do not reach the scores", repicked)
	}
	if untrained < 2 {
		t.Fatalf("%d eligible devices ran an untrained service; the memoized error path needs repeats", untrained)
	}
	if moved < 20 || trained == 0 {
		t.Fatalf("the predictor moved between only %d of 40 fleets (%d trainings); the replay cannot see a stale memo", moved, trained)
	}
}

// TestSlopeEntryDropsInvalidCurves pins validation at entry time: a
// predicted curve that fails Validate (here K1 = -Inf, whose solve
// would otherwise report a feasible Δ) adds zero share, as
// opt.MinPartition's error did, and the other batches score as
// MinPartition solves them.
func TestSlopeEntryDropsInvalidCurves(t *testing.T) {
	batches := model.BatchSizes()
	curves := make([]piecewise.Func, len(batches))
	for i := range curves {
		curves[i] = piecewise.Func{K1: -40 - float64(i), K2: -2, Cutoff: 0.4, L0: 8 + float64(i)}
	}
	valid := newSlopeEntry(1, batches, 0.3, curves, nil)
	if &valid.curves[0] != &curves[0] || &valid.batches[0] != &batches[0] {
		t.Fatal("an entry whose curves all validate copied them")
	}
	broken := slices.Clone(curves)
	broken[2].K1 = math.Inf(-1)
	if _, ok := broken[2].MinDeltaFor(opt.Budget(100, batches[2], 50), 0.9); !ok {
		t.Fatal("the non-finite curve's solve is infeasible; the test cannot tell it is skipped")
	}
	e := newSlopeEntry(1, batches, 0.3, broken, nil)
	if len(e.curves) != len(batches)-1 || slices.Contains(e.batches, batches[2]) {
		t.Fatalf("entry keeps batches %v; want all but %d", e.batches, batches[2])
	}
	for _, qps := range []float64{5, 50, 500, 5000} {
		var shareSum float64
		for i, b := range batches {
			res, err := opt.MinPartition(opt.ScaleRequest{QPS: qps, Batch: b, SLO: 100, Latency: broken[i], MaxDelta: 0.9})
			if err != nil || !res.Feasible {
				continue
			}
			shareSum += 1 - res.Delta
		}
		want := (0.05 + shareSum/float64(len(batches))) / 1.3
		if got := e.score(qps, 100, len(batches)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("qps %v: score %v, MinPartition reference %v", qps, got, want)
		}
	}
}

// TestSelectDeviceSeesPredictorUpdates checks that a memo entry lives
// for one service generation: a selection with no predictor update in
// between reuses every entry, ObserveColocation on RoBERTa recomputes
// only RoBERTa's entries, Train with new profiles invalidates the same
// way, and after each update the selection scores like a fresh Mudi
// over the updated predictor.
func TestSelectDeviceSeesPredictorUpdates(t *testing.T) {
	oracle := perf.NewOracle(11)
	m := mustBuild(t, oracle, 11, 3)
	task, _ := model.TaskByName("ResNet18") // unseen in offline profiles
	var views []DeviceView
	for i, svc := range model.Services() {
		for j, resident := range [][]model.TrainingTask{nil, {task}} {
			v := viewFor(svc.Name, resident...)
			v.ID = fmt.Sprintf("g%d-%d", i, j)
			views = append(views, v)
		}
	}
	// selectLikeFresh runs a selection and checks its pick and every
	// score bit against a fresh Mudi over the same predictor; it returns
	// the scores.
	selectLikeFresh := func(stage string) []float64 {
		t.Helper()
		got, gotOK := m.SelectDevice(task, views, nil)
		scores := lastScores(m, task, views)
		fresh := newMudi(m.Predictor(), m.cfg)
		want, wantOK := fresh.SelectDevice(task, views, nil)
		if got != want || gotOK != wantOK || !gotOK {
			t.Fatalf("%s: SelectDevice = (%q, %v), fresh Mudi = (%q, %v)", stage, got, gotOK, want, wantOK)
		}
		for i, s := range lastScores(fresh, task, views) {
			if math.Float64bits(scores[i]) != math.Float64bits(s) {
				t.Fatalf("%s: device %s scores %v, fresh Mudi %v", stage, views[i].ID, scores[i], s)
			}
		}
		return scores
	}
	// recomputed checks that the selection since memo was copied
	// recomputed exactly svc's entries ("" for none) and reused the rest:
	// a recomputed entry has a new generation and new curves and error.
	recomputed := func(stage string, memo map[colocKey]slopeEntry, svc string) {
		t.Helper()
		if len(m.slope.memo) != len(memo) {
			t.Fatalf("%s: memo holds %d entries, %d before", stage, len(m.slope.memo), len(memo))
		}
		n := 0
		for k, was := range memo {
			now := m.slope.memo[k]
			same := now.gen == was.gen && now.err == was.err &&
				len(now.curves) == len(was.curves) && (len(now.curves) == 0 || &now.curves[0] == &was.curves[0])
			if k.svc == svc {
				n++
				if same {
					t.Fatalf("%s: entry %v was reused", stage, k)
				}
			} else if !same {
				t.Fatalf("%s: entry %v was recomputed", stage, k)
			}
		}
		if svc != "" && n == 0 {
			t.Fatalf("%s: no %s entry in the memo", stage, svc)
		}
	}

	before := selectLikeFresh("first selection")
	memo := maps.Clone(m.slope.memo)
	selectLikeFresh("no update")
	recomputed("no update", memo, "")

	observed := viewFor("RoBERTa", task)
	m.ObserveColocation(observed, &oracleMeasurer{oracle: oracle, view: observed, rng: xrand.New(111)})
	after := selectLikeFresh("after ObserveColocation")
	recomputed("after ObserveColocation", memo, "RoBERTa")
	changed := false
	for i := range after {
		changed = changed || after[i] != before[i]
	}
	if !changed {
		t.Fatal("the predictor update moved no score; the test cannot see a stale memo")
	}

	memo = maps.Clone(m.slope.memo)
	profiles, err := profiler.New(oracle, xrand.New(112)).ProfileService("BERT", nil, [][]model.TrainingTask{{task}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Predictor().Train(profiles); err != nil {
		t.Fatal(err)
	}
	selectLikeFresh("after Train")
	recomputed("after Train", memo, "BERT")
}

// catalogFleet is n devices cycling over the six catalog services, each
// with no resident or one: twelve distinct (service, Ψ) keys whatever n.
func catalogFleet(n int) []DeviceView {
	services := model.Services()
	resident := model.Tasks()[:1]
	views := make([]DeviceView, n)
	for i := range views {
		svc := services[i%len(services)]
		views[i] = DeviceView{
			ID: fmt.Sprintf("g%04d", i), ServiceName: svc.Name,
			SLOms: svc.SLOms, QPS: svc.BaseQPS, FreeShare: 0.5,
		}
		if (i/len(services))%2 == 1 {
			views[i].ResidentTasks = resident
		}
	}
	return views
}

// TestSelectDeviceAllocsFlatInFleetSize pins the placement cost model:
// predictor work (and its allocations) scales with the distinct
// (service, Ψ) keys, not with the number of views.
func TestSelectDeviceAllocsFlatInFleetSize(t *testing.T) {
	m := mustBuild(t, perf.NewOracle(12), 12, 3)
	task, _ := model.TaskByName("NCF")
	small, large := catalogFleet(64), catalogFleet(1024)
	allocs := func(views []DeviceView) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, ok := m.SelectDevice(task, views, nil); !ok {
				t.Fatal("no device selected")
			}
		})
	}
	a64, a1024 := allocs(small), allocs(large)
	t.Logf("warm SelectDevice allocations: %v at 64 views, %v at 1024", a64, a1024)
	if a1024 > a64 {
		t.Fatalf("warm SelectDevice allocations grow with views: %v at 64, %v at 1024", a64, a1024)
	}
}
