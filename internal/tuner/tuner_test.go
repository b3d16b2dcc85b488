package tuner

import (
	"errors"
	"slices"
	"testing"

	"mudi/internal/model"
	"mudi/internal/perf"
	"mudi/internal/piecewise"
	"mudi/internal/xrand"
)

// oracleMeasurer adapts the perf oracle as a Measurer for one device
// hosting one training task next to the inference service.
type oracleMeasurer struct {
	o    *perf.Oracle
	task model.TrainingTask
	svc  string
	rng  *xrand.Rand
}

func (m *oracleMeasurer) TrainIterMs(batch int, delta float64) (float64, error) {
	share := 1 - delta
	if share < 0.05 {
		share = 0.05
	}
	return m.o.MeasureIteration(m.task, share, m.svc, batch, delta, m.rng)
}

// newRequest builds a live tuning request against the oracle for the
// given service at the given QPS, co-located with LSTM training.
func newRequest(t *testing.T, seed uint64, svc string, qps float64) (Request, *perf.Oracle) {
	t.Helper()
	o := perf.NewOracle(seed)
	task, _ := model.TaskByName("LSTM")
	svcInfo, ok := model.ServiceByName(svc)
	if !ok {
		t.Fatalf("unknown service %s", svc)
	}
	batches := model.BatchSizes()
	curves := make([]piecewise.Func, len(batches))
	for i, b := range batches {
		c, err := o.TrainColocCurve(svc, b, []model.TrainingTask{task})
		if err != nil {
			t.Fatalf("curve: %v", err)
		}
		curves[i] = c
	}
	return Request{
		QPS:         qps,
		SLOms:       svcInfo.SLOms,
		Candidates:  batches,
		Curves:      curves,
		Measure:     &oracleMeasurer{o: o, task: task, svc: svc, rng: xrand.New(seed + 99)},
		HasTraining: true,
	}, o
}

func TestTuneProducesFeasibleConfig(t *testing.T) {
	req, _ := newRequest(t, 1, "BERT", 200)
	tn := New(Config{})
	dec, err := tn.Tune(req)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Feasible {
		t.Fatal("nominal load should be feasible")
	}
	if dec.Batch < 16 || dec.Batch > 512 {
		t.Fatalf("batch %d outside candidates", dec.Batch)
	}
	if dec.Delta <= 0 || dec.Delta > 0.9+1e-9 {
		t.Fatalf("delta %v outside (0, 0.9]", dec.Delta)
	}
	// The decision must satisfy the paper constraint with the curve.
	budget := req.SLOms * float64(dec.Batch) / req.QPS
	i := slices.Index(req.Candidates, dec.Batch)
	if got := req.Curves[i].Eval(dec.Delta); got > budget {
		t.Fatalf("decision violates SLO budget: %v > %v", got, budget)
	}
	if dec.BOIterations < 1 || dec.BOIterations > 25 {
		t.Fatalf("BO iterations %d outside [1, 25]", dec.BOIterations)
	}
}

func TestTuneLeavesRoomForTraining(t *testing.T) {
	req, _ := newRequest(t, 2, "ResNet50", 200)
	tn := New(Config{})
	dec, err := tn.Tune(req)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Feasible {
		t.Fatal("expected feasible")
	}
	if dec.Delta > 0.9+1e-9 {
		t.Fatalf("delta %v leaves no training share", dec.Delta)
	}
}

func TestTuneInfeasibleUnderExtremeLoad(t *testing.T) {
	// 50× the nominal load cannot be held: the Tuner must signal
	// training pause rather than return a violating config.
	req, _ := newRequest(t, 3, "GPT2", 10000)
	tn := New(Config{})
	dec, err := tn.Tune(req)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Feasible {
		t.Fatalf("extreme load reported feasible: %+v", dec)
	}
}

func TestTuneValidation(t *testing.T) {
	tn := New(Config{})
	if _, err := tn.Tune(Request{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
	req, _ := newRequest(t, 4, "BERT", 200)
	req.Candidates = nil
	if _, err := tn.Tune(req); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v", err)
	}
	// Curves must align with Candidates.
	req2, _ := newRequest(t, 4, "BERT", 200)
	for _, curves := range [][]piecewise.Func{nil, req2.Curves[1:]} {
		req2.Curves = curves
		if _, err := tn.Tune(req2); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%d curves for %d candidates: err = %v", len(curves), len(req2.Candidates), err)
		}
	}
}

func TestTuneWithoutTraining(t *testing.T) {
	req, _ := newRequest(t, 5, "Inception", 200)
	req.HasTraining = false
	req.Measure = nil
	tn := New(Config{})
	dec, err := tn.Tune(req)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Feasible {
		t.Fatal("expected feasible without training")
	}
	// Without a training task, Δ may use the whole device.
	if dec.Delta > 1 {
		t.Fatalf("delta %v", dec.Delta)
	}
}

// TestRescaleInfeasible: with the batch held fixed, only the Eq. 4
// solve runs, and a load no partition can hold reports infeasible.
func TestRescaleInfeasible(t *testing.T) {
	req, _ := newRequest(t, 7, "GPT2", 20000)
	tn := New(Config{Strategy: BatchFixed})
	dec, err := tn.Tune(req)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Feasible {
		t.Fatal("expected infeasible")
	}
}

func TestTuneImprovesTrainingOverWorstBatch(t *testing.T) {
	// The BO choice should be no worse than the worst feasible
	// candidate by a clear margin — i.e. the search does real work.
	req, o := newRequest(t, 8, "RoBERTa", 200)
	task, _ := model.TaskByName("LSTM")
	tn := New(Config{})
	dec, err := tn.Tune(req)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Feasible {
		t.Fatal("expected feasible")
	}
	chosen, err := o.TrueIteration(task, 1-dec.Delta, "RoBERTa", dec.Batch, dec.Delta)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, b := range req.Candidates {
		v, err := o.TrueIteration(task, 1-dec.Delta, "RoBERTa", b, dec.Delta)
		if err != nil {
			t.Fatal(err)
		}
		if v > worst {
			worst = v
		}
	}
	if chosen >= worst {
		t.Fatalf("BO picked the worst batch: %v vs worst %v", chosen, worst)
	}
}

func TestShadowReconfig(t *testing.T) {
	if sec, restarted := ShadowReconfig(0.5, 0.5); restarted || sec != 0 {
		t.Fatal("no-op reconfig should not restart")
	}
	sec, restarted := ShadowReconfig(0.5, 0.7)
	if !restarted || sec <= 0 {
		t.Fatal("partition change must restart behind a shadow instance")
	}
}

// TestConfigDefaults pins the paper's operating constants and the
// training floor they imply.
func TestConfigDefaults(t *testing.T) {
	if Headroom != 0.10 || BOBudget != 25 || MinTrainShare != 0.10 || SLOMargin != 0.90 {
		t.Fatalf("constants %v %v %v %v", Headroom, BOBudget, MinTrainShare, SLOMargin)
	}
	if got := MaxDelta(true); got != 0.90 {
		t.Fatalf("MaxDelta with training = %v, want 0.90", got)
	}
	if got := MaxDelta(false); got != 1 {
		t.Fatalf("MaxDelta without training = %v, want 1", got)
	}
}

func TestBatchStrategies(t *testing.T) {
	req, o := newRequest(t, 10, "BERT", 200)
	task, _ := model.TaskByName("LSTM")

	decBO, err := New(Config{Strategy: BatchBO}).Tune(req)
	if err != nil {
		t.Fatal(err)
	}
	decFixed, err := New(Config{Strategy: BatchFixed}).Tune(req)
	if err != nil {
		t.Fatal(err)
	}
	decEx, err := New(Config{Strategy: BatchExhaustive}).Tune(req)
	if err != nil {
		t.Fatal(err)
	}
	if !decBO.Feasible || !decFixed.Feasible || !decEx.Feasible {
		t.Fatalf("strategies feasible: bo=%v fixed=%v ex=%v", decBO.Feasible, decFixed.Feasible, decEx.Feasible)
	}
	if decFixed.Batch != 64 {
		t.Fatalf("fixed strategy batch %d, want 64", decFixed.Batch)
	}
	// Exhaustive measures every candidate; BO must use fewer or equal
	// evaluations.
	if decEx.BOIterations != len(req.Candidates) {
		t.Fatalf("exhaustive evaluations %d, want %d", decEx.BOIterations, len(req.Candidates))
	}
	if decBO.BOIterations > 25 {
		t.Fatalf("BO iterations %d", decBO.BOIterations)
	}
	// Quality: BO's chosen configuration should be within 15% of the
	// exhaustive optimum in true iteration time.
	iterOf := func(dec Decision) float64 {
		v, err := o.TrueIteration(task, 1-dec.Delta, "BERT", dec.Batch, dec.Delta)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if iterOf(decBO) > iterOf(decEx)*1.15 {
		t.Fatalf("BO iteration %v too far above exhaustive %v", iterOf(decBO), iterOf(decEx))
	}
	// And the fixed arm should generally be no better than BO.
	if iterOf(decBO) > iterOf(decFixed)*1.2 {
		t.Fatalf("BO iteration %v far above fixed-batch %v", iterOf(decBO), iterOf(decFixed))
	}
}

// flakyMeasurer fails its failAt-th call (1-based) and logs every
// successful measurement as the Probe the tuner should report.
type flakyMeasurer struct {
	inner  Measurer
	calls  int
	failAt int
	ok     []Probe
}

var errFlaky = errors.New("measurement failed")

func (m *flakyMeasurer) TrainIterMs(batch int, delta float64) (float64, error) {
	m.calls++
	if m.calls == m.failAt {
		return 0, errFlaky
	}
	iter, err := m.inner.TrainIterMs(batch, delta)
	if err == nil {
		m.ok = append(m.ok, Probe{Batch: batch, Delta: delta, TrainIterMs: iter})
	}
	return iter, err
}

// TestTuneReturnsProbesWithError: a measurement that fails mid-episode
// surfaces as Tune's error, and the Decision still carries every probe
// measured before and after the failure, in order.
func TestTuneReturnsProbesWithError(t *testing.T) {
	req, _ := newRequest(t, 1, "BERT", 200)
	flaky := &flakyMeasurer{inner: req.Measure, failAt: 2}
	req.Measure = flaky
	dec, err := New(Config{}).Tune(req)
	if !errors.Is(err, errFlaky) {
		t.Fatalf("Tune error = %v, want the measurement error", err)
	}
	if flaky.calls <= flaky.failAt {
		t.Fatalf("episode stopped at the failure (%d calls); the test needs probes after it", flaky.calls)
	}
	if len(dec.Probes) != len(flaky.ok) {
		t.Fatalf("%d probes, %d successful measurements", len(dec.Probes), len(flaky.ok))
	}
	for i, p := range dec.Probes {
		want := flaky.ok[i]
		if p.Batch != want.Batch || p.Delta != want.Delta || p.TrainIterMs != want.TrainIterMs {
			t.Fatalf("probe %d = %+v, measured %+v", i, p, want)
		}
	}
}
