package core

import (
	"errors"
	"fmt"
	"testing"

	"mudi/internal/faults"
	"mudi/internal/model"
	"mudi/internal/perf"
	"mudi/internal/xrand"
)

// failingMeasurer injects measurement failures after a budget of
// successful calls — a crashed Training Agent or a monitoring gap.
type failingMeasurer struct {
	inner   Measurer
	budget  int
	failErr error
}

var errAgentDown = errors.New("training agent unreachable")

func (m *failingMeasurer) TrainIterMs(batch int, delta float64) (float64, error) {
	if m.budget <= 0 {
		return 0, m.failErr
	}
	m.budget--
	return m.inner.TrainIterMs(batch, delta)
}

func (m *failingMeasurer) InfLatencyMs(batch int, delta float64) (float64, error) {
	if m.budget <= 0 {
		return 0, m.failErr
	}
	m.budget--
	return m.inner.InfLatencyMs(batch, delta)
}

func TestConfigureSurfacesMeasurementFailure(t *testing.T) {
	oracle := perf.NewOracle(31)
	m := buildMudi(t, oracle, 31, 1)
	task, _ := model.TaskByName("LSTM")
	view := viewFor("BERT", task)
	inner := &oracleMeasurer{oracle: oracle, view: view, rng: xrand.New(131)}
	meas := &failingMeasurer{inner: inner, budget: 0, failErr: errAgentDown}
	if _, err := m.Configure(view, meas); !errors.Is(err, errAgentDown) {
		t.Fatalf("err = %v, want the agent failure surfaced", err)
	}
}

// TestConfigurePredictorFallbackOnMeasurementFault: a transient fault
// that exhausts its retry budget (faults.ErrMeasurement) must not
// drop the reconfiguration — Configure reruns the episode on
// predictor-only curves and still produces a decision. Other error
// kinds (see TestConfigureSurfacesMeasurementFailure) keep surfacing.
func TestConfigurePredictorFallbackOnMeasurementFault(t *testing.T) {
	oracle := perf.NewOracle(34)
	m := buildMudi(t, oracle, 34, 1)
	task, _ := model.TaskByName("LSTM")
	view := viewFor("BERT", task)
	meas := &failingMeasurer{
		budget:  0,
		failErr: fmt.Errorf("cluster: measuring on gpu0000 after 3 retries: %w", faults.ErrMeasurement),
	}
	dec, err := m.Configure(view, meas)
	if err != nil {
		t.Fatalf("measurement fault not absorbed by predictor fallback: %v", err)
	}
	if !dec.Feasible {
		t.Fatal("predictor-only fallback produced an infeasible decision for nominal load")
	}
}

func TestConfigureToleratesLateFailure(t *testing.T) {
	// Failures during the validation rounds (after the decision is
	// made) must not invalidate the decision: the repair loop simply
	// stops verifying.
	oracle := perf.NewOracle(32)
	m := buildMudi(t, oracle, 32, 1)
	task, _ := model.TaskByName("NCF")
	view := viewFor("Inception", task)
	inner := &oracleMeasurer{oracle: oracle, view: view, rng: xrand.New(132)}
	// Enough budget for the whole BO episode, none for validation.
	meas := &failingMeasurer{inner: inner, budget: 30, failErr: errAgentDown}
	dec, err := m.Configure(view, meas)
	if err != nil {
		t.Fatalf("late measurement failure should not error: %v", err)
	}
	if !dec.Feasible {
		t.Fatal("decision lost to a late measurement failure")
	}
}

func TestObserveColocationAbortsCleanlyOnFailure(t *testing.T) {
	oracle := perf.NewOracle(33)
	m := buildMudi(t, oracle, 33, 1)
	task, _ := model.TaskByName("ResNet18")
	view := viewFor("RoBERTa", task)
	inner := &oracleMeasurer{oracle: oracle, view: view, rng: xrand.New(133)}
	meas := &failingMeasurer{inner: inner, budget: 3, failErr: errAgentDown}
	before := m.Predictor().Samples("RoBERTa")
	m.ObserveColocation(view, meas) // must not panic or wedge
	after := m.Predictor().Samples("RoBERTa")
	if after < before {
		t.Fatal("samples went backwards")
	}
	// A later healthy observation of the same co-location is skipped
	// (the key was marked seen) — that is acceptable: the predictor
	// falls back to generalization and the Monitor repairs online.
}

// TestObserveColocationCountsDrops: a co-location abandoned at a
// measurement error is counted, learns nothing, and stays seen.
func TestObserveColocationCountsDrops(t *testing.T) {
	oracle := perf.NewOracle(34)
	m := buildMudi(t, oracle, 34, 1)
	task, _ := model.TaskByName("ResNet18")
	view := viewFor("RoBERTa", task)
	inner := &oracleMeasurer{oracle: oracle, view: view, rng: xrand.New(134)}
	gen := m.Predictor().Generation("RoBERTa")
	m.ObserveColocation(view, &failingMeasurer{inner: inner, budget: 0, failErr: errAgentDown})
	if ls := m.LearnerStats(); ls.Dropped != 1 || ls.Colocations != 0 || ls.Scored != 0 {
		t.Fatalf("after a failed measurement: %d dropped, %d learned, %d scored; want 1, 0, 0",
			ls.Dropped, ls.Colocations, ls.Scored)
	}
	if got := m.Predictor().Generation("RoBERTa"); got != gen {
		t.Fatalf("a dropped co-location moved the generation %d → %d", gen, got)
	}
	m.ObserveColocation(view, inner)
	if ls := m.LearnerStats(); ls.Dropped != 1 || ls.Colocations != 0 {
		t.Fatalf("a dropped co-location was retried: %d dropped, %d learned", ls.Dropped, ls.Colocations)
	}
	other := viewFor("BERT", task)
	m.ObserveColocation(other, &oracleMeasurer{oracle: oracle, view: other, rng: xrand.New(135)})
	if ls := m.LearnerStats(); ls.Dropped != 1 || ls.Colocations != 1 || ls.Scored == 0 {
		t.Fatalf("after a healthy co-location: %d dropped, %d learned, %d scored", ls.Dropped, ls.Colocations, ls.Scored)
	}
}
