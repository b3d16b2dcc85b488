package exp

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mudi/internal/cluster"
	"mudi/internal/core"
	"mudi/internal/model"
	"mudi/internal/perf"
	"mudi/internal/predictor"
	"mudi/internal/runner"
)

// memoSeeds lists the memo's keys' seeds, oldest first.
func memoSeeds() []uint64 {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	var out []uint64
	for _, e := range memo.entries {
		out = append(out, e.seed)
	}
	return out
}

// placeholder adds a trained-state entry for the key without training
// and returns its output, a predictor no training returns.
func placeholder(oracle *perf.Oracle, seed uint64, maxTrain int) *offline {
	e := &memoEntry{oracle: oracle, seed: seed, maxTrain: maxTrain, done: make(chan struct{}), off: &offline{pred: predictor.New(seed)}}
	close(e.done)
	memo.mu.Lock()
	memo.entries = append(memo.entries, e)
	memo.mu.Unlock()
	return e.off
}

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

// TestClonedMudiCellsMatchUnmemoizedBuilds runs two Mudi cells at once,
// each over a clone of one memoized predictor, and checks each cell's
// summary against a Mudi over its own unmemoized training. Under -race
// it also checks that the cells share the trained state only by
// reading it.
func TestClonedMudiCellsMatchUnmemoizedBuilds(t *testing.T) {
	s, err := NewSuite(Config{Seed: 3, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	loads := []float64{1, 1.5}
	run := func(p core.Policy, load float64) (*cluster.Result, error) {
		return s.Config.simulate(cluster.Options{Policy: p, Oracle: s.Oracle, Devices: 12, Arrivals: s.Arrivals, LoadFactor: load})
	}
	want := make([]string, len(loads))
	for i, load := range loads {
		off, err := train(perf.NewOracle(3), 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := core.NewMudi(off.pred, core.MudiConfig{MaxTrainPerGPU: 1})
		m.AddProfiles(off.curves)
		res, err := run(m, load)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Summary()
	}
	base, err := trainedFor(s.Oracle, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := predictions(t, base.pred)
	cells := make([]runner.Cell[*cluster.Result], len(loads))
	for i, load := range loads {
		cells[i] = runner.Cell[*cluster.Result]{Key: fmt.Sprint(i), Run: func() (*cluster.Result, error) {
			m, err := BuildMudi(s.Oracle, 3, 1)
			if err != nil {
				return nil, err
			}
			return run(m, load)
		}}
	}
	got, err := runCells(s.Config, s.pool, cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range loads {
		if got[i].Summary() != want[i] {
			t.Errorf("load %v: a cell over a cloned predictor differs from one over its own training", loads[i])
		}
	}
	if got[0].Summary() == got[1].Summary() {
		t.Error("the two cells ran alike; they do not exercise independent learning")
	}
	if again, _ := trainedFor(s.Oracle, 3, 1); again != base || predictions(t, base.pred) != before {
		t.Error("the cells' online learning reached the memoized predictor")
	}
}

// TestTrainMemo pins the memo's key, bound and single flight:
// concurrent first callers share one training, an oracle with the same
// content hits while an extra service or another maxTrain misses, and
// past memoSize the oldest key is evicted and rebuilds to what an
// unmemoized training returns. Placeholder entries stand in for the
// other keys, so the test trains only what it checks.
func TestTrainMemo(t *testing.T) {
	memo.mu.Lock()
	saved := memo.entries
	memo.entries = nil
	memo.mu.Unlock()
	t.Cleanup(func() {
		memo.mu.Lock()
		memo.entries = saved
		memo.mu.Unlock()
	})

	var wg sync.WaitGroup
	offs := make([]*offline, 4)
	for i := range offs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			offs[i], _ = trainedFor(perf.NewOracle(1), 1, 1)
		}()
	}
	wg.Wait()
	first := offs[0]
	for _, off := range offs {
		if off == nil || off != first {
			t.Fatal("concurrent first callers of one key did not share one training")
		}
	}
	if seeds := memoSeeds(); len(seeds) != 1 {
		t.Fatalf("concurrent first callers left %d entries, want 1", len(seeds))
	}
	if again, _ := trainedFor(perf.NewOracle(1), 1, 1); again != first {
		t.Error("a fresh oracle with the same seed missed the memo")
	}
	// Keys that differ from the first entry's only in the oracle's
	// services or in maxTrain must find their own entries, not the
	// first one, which comes earlier in the memo.
	extra := perf.NewOracle(1)
	extra.RegisterService(model.InferenceService{Name: "Custom", BaseQPS: 100, SLOms: 50})
	if want := placeholder(extra, 1, 1); mustTrained(t, extra, 1, 1) != want {
		t.Error("an oracle with an extra service hit another key's entry")
	}
	if want := placeholder(perf.NewOracle(1), 1, 2); mustTrained(t, perf.NewOracle(1), 1, 2) != want {
		t.Error("another maxTrain hit another key's entry")
	}
	for seed := uint64(100); len(memoSeeds()) < memoSize; seed++ {
		placeholder(perf.NewOracle(seed), seed, 1)
	}
	mustTrained(t, perf.NewOracle(2), 2, 1)
	if seeds := memoSeeds(); len(seeds) != memoSize || seeds[len(seeds)-1] != 2 {
		t.Fatalf("past the bound the memo holds seeds %v; want %d ending in the new key", seeds, memoSize)
	}
	rebuilt := mustTrained(t, perf.NewOracle(1), 1, 1)
	if rebuilt == first {
		t.Fatal("an evicted key still hit the memo")
	}
	if seeds := memoSeeds(); len(seeds) != memoSize || seeds[len(seeds)-1] != 1 {
		t.Fatalf("after rebuilding seed 1 the memo holds seeds %v", seeds)
	}
	ref, err := train(perf.NewOracle(1), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if predictions(t, rebuilt.pred) != predictions(t, ref.pred) || !reflect.DeepEqual(rebuilt.curves, ref.curves) {
		t.Error("the rebuilt entry differs from an unmemoized training")
	}
}

// mustTrained is trainedFor, failing the test on an error.
func mustTrained(t *testing.T, oracle *perf.Oracle, seed uint64, maxTrain int) *offline {
	t.Helper()
	off, err := trainedFor(oracle, seed, maxTrain)
	if err != nil {
		t.Fatal(err)
	}
	return off
}
