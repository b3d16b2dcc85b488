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
// way: eligibility, then the negated average slope weighted by the
// predicted leftover share, every curve solved through
// opt.MinPartition. The predictor's outputs for the device's (service,
// Ψ) come from out, which holds them for one predictor state.
func referenceScore(out *referenceOutputs, maxTrain int, task model.TrainingTask, v DeviceView) (float64, bool) {
	if v.ServiceName == "" || len(v.ResidentTasks) >= maxTrain || v.Paused {
		return 0, false
	}
	o := out.get(v.ServiceName, task.Arch.Add(colocArch(v.ResidentTasks)))
	if o.err != nil {
		return 0, false
	}
	var shareSum float64
	for i, curve := range o.curves {
		if o.curveErrs[i] != nil || v.QPS <= 0 || v.SLOms <= 0 {
			continue
		}
		res, err := opt.MinPartition(opt.ScaleRequest{
			QPS: v.QPS, Batch: model.BatchSizes()[i], SLO: v.SLOms, Latency: curve, MaxDelta: 0.9,
		})
		if err != nil || !res.Feasible {
			continue
		}
		shareSum += 1 - res.Delta
	}
	return (0.05 + shareSum/float64(len(o.curves))) / (1 + o.slope), true
}

// referenceOutputs asks the predictor directly, through AvgSlope and
// PredictCurve per batch, and keeps the answers per (service, Ψ) until
// reset: a 1024-view fleet meets a few dozen keys.
type referenceOutputs struct {
	pred *predictor.Predictor
	outs map[colocKey]referenceOutput
}

type referenceOutput struct {
	slope     float64
	err       error
	curves    []piecewise.Func
	curveErrs []error
}

func (r *referenceOutputs) reset() { r.outs = make(map[colocKey]referenceOutput) }

func (r *referenceOutputs) get(svc string, arch model.Arch) referenceOutput {
	key := colocKey{svc, arch}
	if o, ok := r.outs[key]; ok {
		return o
	}
	var o referenceOutput
	o.slope, _, o.err = r.pred.AvgSlope(svc, arch)
	for _, b := range model.BatchSizes() {
		c, err := r.pred.PredictCurve(svc, b, arch)
		o.curves = append(o.curves, c)
		o.curveErrs = append(o.curveErrs, err)
	}
	r.outs[key] = o
	return o
}

// referenceSelect picks the highest reference score, ties to the
// smaller device ID.
func referenceSelect(out *referenceOutputs, maxTrain int, task model.TrainingTask, views []DeviceView) (string, bool) {
	best, bestScore := -1, 0.0
	for i, v := range views {
		s, ok := referenceScore(out, maxTrain, task, v)
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

// lastScores scores every view for task the direct way, device by
// device, through the memo m's latest SelectDevice call left and the
// entry's own score: the per-device scorer the selection replaced. A
// skipped view scores -1.
func lastScores(m *Mudi, task model.TrainingTask, views []DeviceView) []float64 {
	out := make([]float64, len(views))
	for i := range views {
		out[i] = -1
		v := &views[i]
		if !Eligible(v, m.cfg.MaxTrainPerGPU) {
			continue
		}
		e := m.slope.entry(colocKey{v.ServiceName, task.Arch.Add(colocArch(v.ResidentTasks))})
		if e.err == nil {
			out[i], _ = e.score(v.QPS, v.SLOms, len(m.slope.batches))
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

// matchReference runs one selection on m and checks it against the
// direct per-device scorer on the current predictor: the same pick,
// and every view's score bit-identical. It returns the pick and
// whether the best score tied.
func matchReference(t *testing.T, m *Mudi, ref *referenceOutputs, task model.TrainingTask, views []DeviceView, stage string) (pick string, ok, tied bool) {
	t.Helper()
	maxTrain := m.cfg.MaxTrainPerGPU
	ref.reset()
	got, gotOK := m.SelectDevice(task, views, nil)
	want, wantOK := referenceSelect(ref, maxTrain, task, views)
	if got != want || gotOK != wantOK {
		t.Fatalf("%s: SelectDevice = (%q, %v), reference = (%q, %v)", stage, got, gotOK, want, wantOK)
	}
	scores := lastScores(m, task, views)
	best, atBest := slices.Max(scores), 0
	for i, s := range scores {
		if s == best {
			atBest++
		}
		r, ok := referenceScore(ref, maxTrain, task, views[i])
		if !ok {
			r = -1
		}
		if math.Float64bits(s) != math.Float64bits(r) {
			t.Fatalf("%s: device %s scores %v, reference %v", stage, views[i].ID, s, r)
		}
	}
	return got, gotOK, best >= 0 && atBest > 1
}

// largeFleet draws n device views of the catalog services, each
// service at its own SLO or twice it, in shuffled order, with IDs
// gpu9500 to gpu(9500+n-1): string order, the tie rule's, differs from
// both device order and numeric order (gpu10000 < gpu9999). Each
// device has 0 to maxTrain residents from three tasks, so a Mudi-more
// fleet has several Ψ per service. QPS is drawn by kind: "spread"
// around each service's base rate, as fleet traces give; "equal", the
// base rate on every device, so each (service, Ψ, SLO) group is one
// tie; "plateau", rates so low that every Δ sits at the 1% floor.
func largeFleet(rng *xrand.Rand, n int, kind string, maxTrain int) []DeviceView {
	services := model.Services()
	tasks := model.Tasks()
	views := make([]DeviceView, n)
	for i, j := range rng.Perm(n) {
		svc := services[rng.Intn(len(services))]
		v := DeviceView{ID: fmt.Sprintf("gpu%d", 9500+j), ServiceName: svc.Name, SLOms: svc.SLOms, FreeShare: 0.5}
		if rng.Intn(4) == 0 {
			v.SLOms *= 2
		}
		switch kind {
		case "spread":
			v.QPS = svc.BaseQPS * rng.Range(0.2, 3)
		case "equal":
			v.QPS = svc.BaseQPS
		case "plateau":
			v.QPS = svc.BaseQPS * rng.Range(1e-4, 1e-3)
		}
		for r := rng.Intn(maxTrain + 1); r > 0; r-- {
			v.ResidentTasks = append(v.ResidentTasks, tasks[rng.Intn(3)])
		}
		views[i] = v
	}
	return views
}

// TestSelectDeviceMatchesReference checks the Device Selector against
// the direct per-device scorer, which validates and solves every curve
// through opt.MinPartition: same pick, and every device's score
// bit-identical.
//
// The first part is a replay on one Mudi-more, so the memo carries
// over between calls. Each fleet is selected on four times, and
// between those selections views change their QPS, SLO, Paused flag
// and residents (mutateFleet), so one call's groups must not leak into
// the next; some calls meet more groups than a short scan would want.
// Between fleets the predictor learns random co-locations through
// ObserveColocation, and now and then trains on a fresh batch of
// offline profiles, and the reference always reads the current
// predictor. Each fleet holds twins of some of its devices, so some
// fleets' best score ties and the pick must take the smaller ID.
//
// The second part selects over 1024-view fleets (largeFleet) on Mudi
// and Mudi-more: QPS spread per device, whole groups at one QPS, and
// low-QPS plateaus, with IDs whose string order is neither device nor
// numeric order.
func TestSelectDeviceMatchesReference(t *testing.T) {
	const maxTrain = 3
	oracle := perf.NewOracle(10)
	m := mustBuild(t, oracle, 10, maxTrain)
	pred := m.Predictor()
	ref := &referenceOutputs{pred: pred}
	tasks := model.Tasks()
	services := model.Services()
	prof := profiler.New(oracle, xrand.New(1010))
	placed, untrained, moved, trained, tied, selections, repicked, crowded := 0, 0, 0, 0, 0, 0, 0, 0
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
			got, gotOK, tie := matchReference(t, m, ref, task, views, fmt.Sprintf("seed %d round %d", seed, round))
			if len(m.slope.groups) >= crowdedGroups {
				crowded++
			}
			if round > 0 && got != prev {
				repicked++
			}
			prev = got
			if tie {
				tied++
			}
			for _, v := range views {
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
	t.Logf("%d of %d selections tie for the best score; %d moved the pick after a fleet change; %d met %d or more groups",
		tied, selections, repicked, crowded, crowdedGroups)
	if crowded == 0 {
		t.Fatalf("no selection met %d groups; the group scan went unexercised", crowdedGroups)
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

	mudi := mustBuild(t, oracle, 10, 1)
	for _, mm := range []*Mudi{mudi, m} {
		ref := &referenceOutputs{pred: mm.Predictor()}
		for _, kind := range []string{"spread", "equal", "plateau"} {
			tiedKind, numericLater := 0, 0
			for seed := uint64(1); seed <= 3; seed++ {
				rng := xrand.New(2000 + seed)
				views := largeFleet(rng, 1024, kind, mm.cfg.MaxTrainPerGPU)
				task := tasks[rng.Intn(len(tasks))]
				for round := 0; round < 2; round++ {
					if round > 0 {
						mutateFleet(rng, views, mm.cfg.MaxTrainPerGPU)
					}
					stage := fmt.Sprintf("maxTrain %d %s seed %d round %d", mm.cfg.MaxTrainPerGPU, kind, seed, round)
					got, ok, tie := matchReference(t, mm, ref, task, views, stage)
					if !ok {
						t.Fatalf("%s: no device selected", stage)
					}
					if tie {
						tiedKind++
						if len(got) > len("gpu9999") {
							numericLater++ // a tie won by gpu1xxxx over gpu9xxx
						}
					}
				}
			}
			if kind != "spread" && (tiedKind == 0 || numericLater == 0) {
				t.Fatalf("maxTrain %d %s: %d selections tie, %d won by an ID numerically after another tied one; the tie rule went unexercised",
					mm.cfg.MaxTrainPerGPU, kind, tiedKind, numericLater)
			}
		}
	}
}

// crowdedGroups is the group count a selection call must reach in
// TestSelectDeviceMatchesReference's replay.
const crowdedGroups = 16

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
		if got, _ := e.score(qps, 100, len(batches)); math.Float64bits(got) != math.Float64bits(want) {
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

// TestSelectDeviceSolvesFewDevices pins the placement cost model: over
// a 1024-view fleet of the six catalog services with QPS spread per
// device, a warm selection runs at most an eighth of the Eq. 4 solves
// that scoring every eligible device (six per device) would.
func TestSelectDeviceSolvesFewDevices(t *testing.T) {
	m := mustBuild(t, perf.NewOracle(12), 12, 1)
	task, _ := model.TaskByName("NCF")
	for _, kind := range []string{"spread", "equal", "plateau"} {
		views := largeFleet(xrand.New(12), 1024, kind, 1)
		eligible := 0
		for i := range views {
			if Eligible(&views[i], 1) {
				eligible++
			}
		}
		m.SelectDevice(task, views, nil) // fills the memo
		before := m.slope.solves
		if _, ok := m.SelectDevice(task, views, nil); !ok {
			t.Fatalf("%s: no device selected", kind)
		}
		solves, perDevice := m.slope.solves-before, len(model.BatchSizes())*eligible
		t.Logf("%s: %d solves over %d eligible views; scoring each would run %d", kind, solves, eligible, perDevice)
		if kind == "spread" && solves > perDevice/8 {
			t.Fatalf("%s: %d solves, more than an eighth of %d", kind, solves, perDevice)
		}
	}
}

// TestSlopeEntryScoreRisesWithQPS pins why the Device Selector prunes
// by the score's bound rather than by QPS order: the score can rise as
// QPS rises. Over one curve, MinDeltaFor's counterexample (see
// piecewise.Func.MinDeltaBound), one float more of QPS moves the solve
// from the knee to the 1% floor. The bound at the lower QPS covers the
// higher one.
func TestSlopeEntryScoreRisesWithQPS(t *testing.T) {
	e := newSlopeEntry(1, []int{1}, 0.3, []piecewise.Func{{K1: -95, K2: -4, Cutoff: 0.09, L0: 4}}, nil)
	const slo = 11.6
	low, high := 1.0, math.Nextafter(1, 2)
	if b := opt.Budget(slo, 1, high); b != 11.599999999999998 {
		t.Fatalf("budget at the higher QPS is %v, not the counterexample's", b)
	}
	sLow, bound := e.score(low, slo, 1)
	sHigh, _ := e.score(high, slo, 1)
	if !(sHigh > sLow) {
		t.Fatalf("score %v at QPS %v, %v at %v: no rise", sLow, low, sHigh, high)
	}
	if sHigh > bound {
		t.Fatalf("score %v at QPS %v exceeds the bound %v at QPS %v", sHigh, high, bound, low)
	}
}

// TestSlopeEntryBoundCoversHigherQPS checks the contract the Device
// Selector prunes by: an entry's bound at a QPS is at least its score at
// that QPS and at every higher one, under one SLO. Entries hold six
// random curves, rising segments and invalid curves included, at
// random slopes; QPS ladders walk float by float across the QPS at
// which a batch's budget meets a branch boundary of its curve, and
// spread between.
func TestSlopeEntryBoundCoversHigherQPS(t *testing.T) {
	rng := xrand.New(7)
	batches := model.BatchSizes()
	curve := func() piecewise.Func {
		scale := math.Pow(10, rng.Range(-1, 2.5))
		c := piecewise.Func{
			K1: -scale * rng.Range(0, 400), K2: -scale * rng.Range(0, 20),
			Cutoff: rng.Range(0.005, 1), L0: scale * rng.Range(0.1, 5),
		}
		switch rng.Intn(10) {
		case 0:
			c.K1 = -c.K1
		case 1:
			c.K2 = -c.K2
		case 2:
			c.K1 = math.Inf(-1) // fails Validate
		}
		return c
	}
	checked, rises := 0, 0
	for range 400 {
		curves := make([]piecewise.Func, len(batches))
		for i := range curves {
			curves[i] = curve()
		}
		e := newSlopeEntry(1, batches, rng.Range(0, 2), curves, nil)
		slo := rng.Range(10, 500)
		var ladder []float64
		for i, c := range e.curves {
			for _, lat := range []float64{c.Eval(0.01), c.L0, c.Eval(0.9), c.Eval(rng.Float64())} {
				q := slo * float64(e.batches[i]) / lat
				for range 16 {
					q = math.Nextafter(q, 0)
				}
				for range 32 {
					ladder = append(ladder, q)
					q = math.Nextafter(q, math.Inf(1))
				}
			}
		}
		for range 32 {
			ladder = append(ladder, math.Exp(rng.Range(-3, 9)))
		}
		slices.Sort(ladder)
		ladder = slices.Compact(ladder)
		// Walk down from the highest QPS, keeping the best score at or
		// above the current one.
		best, prev := math.Inf(-1), math.Inf(-1)
		for i := len(ladder) - 1; i >= 0; i-- {
			s, bound := e.score(ladder[i], slo, len(batches))
			if s < prev {
				rises++ // the score at the next higher QPS was larger
			}
			best, prev = max(best, s), s
			if best > bound {
				t.Fatalf("entry %+v slo %v: bound %v at QPS %v, below a score %v at a QPS ≥ it", e, slo, bound, ladder[i], best)
			}
			checked++
		}
	}
	t.Logf("%d QPS checked; the score rose with QPS at %d of them", checked, rises)
}

// TestSelectDevicePicksPastTheCounterexample runs a selection where
// neither the group's lowest-QPS device nor the next one scored is its
// best. The entry holds MinDeltaFor's counterexample curve
// (TestSlopeEntryScoreRisesWithQPS) at batches 1 and 2, so its knee
// solve strikes at QPS 1 for batch 1 and at QPS 2 for batch 2, and the
// device one float of QPS above 2 beats both. A selector that trusted
// QPS order would stop at the lowest device, and one that marked by
// score rather than bound would stop at the QPS-2 device.
func TestSelectDevicePicksPastTheCounterexample(t *testing.T) {
	m := mustBuild(t, perf.NewOracle(13), 13, 1)
	task, _ := model.TaskByName("NCF")
	const svc = "Counterexample" // unknown to the predictor: generation 0
	cex := piecewise.Func{K1: -95, K2: -4, Cutoff: 0.09, L0: 4}
	m.slope.memo[colocKey{svc, task.Arch}] = newSlopeEntry(0, []int{1, 2}, 0.3, []piecewise.Func{cex, cex}, nil)
	views := []DeviceView{
		{ID: "a-lowest", ServiceName: svc, SLOms: 11.6, QPS: 1},
		{ID: "b-knee", ServiceName: svc, SLOms: 11.6, QPS: 2},
		{ID: "c-above", ServiceName: svc, SLOms: 11.6, QPS: math.Nextafter(2, 3)},
		{ID: "d-high", ServiceName: svc, SLOms: 11.6, QPS: 8},
	}
	s := lastScores(m, task, views)
	if !(s[2] > s[0] && s[0] > s[1] && s[0] > s[3]) {
		t.Fatalf("scores %v: want c-above > a-lowest > b-knee, d-high", s)
	}
	if got, ok := m.SelectDevice(task, views, nil); !ok || got != "c-above" {
		t.Fatalf("SelectDevice = (%q, %v), want c-above", got, ok)
	}
}
