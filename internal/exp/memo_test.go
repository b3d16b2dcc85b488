package exp

import (
	"fmt"
	"testing"

	"mudi/internal/cluster"
	"mudi/internal/core"
	"mudi/internal/model"
	"mudi/internal/predictor"
	"mudi/internal/runner"
)

// predictions is every catalog service's predicted curve at every batch
// next to every unseen task, with the predictor's Stats: what a Mudi
// built over pred reads of it.
func predictions(t *testing.T, pred *predictor.Predictor) string {
	t.Helper()
	var out []any
	for _, svc := range model.Services() {
		for _, b := range model.BatchSizes() {
			for _, task := range model.UnseenTasks() {
				c, err := pred.PredictCurve(svc.Name, b, task.Arch)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, c)
			}
		}
		out = append(out, pred.Generation(svc.Name), pred.Samples(svc.Name))
	}
	return fmt.Sprintf("%v %+v", out, pred.Stats())
}

// TestClonedMudiCellsMatchSequentialBuilds runs two Mudi cells at once,
// each over core.Build's clone of one trained predictor, and checks
// each cell's summary against the same cell run alone. Under -race it
// also checks that the cells share the trained state only by reading
// it. core's TestBuildLearnsLikeFreshTraining pins a built Mudi to one
// over its own unmemoized training.
func TestClonedMudiCellsMatchSequentialBuilds(t *testing.T) {
	s, err := NewSuite(Config{Seed: 3, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	loads := []float64{1, 1.5}
	run := func(load float64) (*cluster.Result, error) {
		m, err := core.Build(s.Oracle, 3, core.MudiConfig{})
		if err != nil {
			return nil, err
		}
		return s.Config.simulate(cluster.Options{Policy: m, Oracle: s.Oracle, Devices: 12, Arrivals: s.Arrivals, LoadFactor: load})
	}
	trained := func() string {
		m, err := core.Build(s.Oracle, 3, core.MudiConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return predictions(t, m.Predictor())
	}
	before := trained()
	want := make([]string, len(loads))
	for i, load := range loads {
		res, err := run(load)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Summary()
	}
	cells := make([]runner.Cell[*cluster.Result], len(loads))
	for i, load := range loads {
		cells[i] = runner.Cell[*cluster.Result]{Key: fmt.Sprint(i), Run: func() (*cluster.Result, error) { return run(load) }}
	}
	got, err := runCells(s.Config, s.pool, cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range loads {
		if got[i].Summary() != want[i] {
			t.Errorf("load %v: a cell run next to another differs from one run alone", loads[i])
		}
	}
	if got[0].Summary() == got[1].Summary() {
		t.Error("the two cells ran alike; they do not exercise independent learning")
	}
	if trained() != before {
		t.Error("the cells' online learning reached the trained predictor")
	}
}
