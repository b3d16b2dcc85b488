package exp

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"mudi/internal/obs"
)

// TestRunAllObserverDeterminism drives a shared concurrent Observer
// from every experiment cell at -parallel 1 and -parallel 8 and
// asserts three things at once: the Observer really fires, the two
// parallelism levels produce identical Result summaries, and (under
// `make race`) concurrent Observer fan-in is race-clean. Each cell
// owns a private sink, so the Observer func is the only shared state.
func TestRunAllObserverDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full comparison sets in -short")
	}
	var events atomic.Int64
	observer := func(obs.Event) { events.Add(1) }
	summaries := func(parallel int) map[string]string {
		s, err := NewSuite(Config{Seed: 5, Parallel: parallel, Observer: observer})
		if err != nil {
			t.Fatal(err)
		}
		results, err := s.RunAll()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string, len(results))
		for name, res := range results {
			out[name] = res.Summary()
			if len(res.Events) == 0 || res.Metrics == nil {
				t.Errorf("cell %q: events=%d metrics=%v", name, len(res.Events), res.Metrics != nil)
			}
		}
		return out
	}
	seq := summaries(1)
	afterSeq := events.Load()
	if afterSeq == 0 {
		t.Fatal("observer saw no events")
	}
	par := summaries(8)
	if events.Load() != 2*afterSeq {
		t.Errorf("parallel run emitted %d events, sequential %d", events.Load()-afterSeq, afterSeq)
	}
	for name, want := range seq {
		if got := par[name]; got != want {
			t.Errorf("cell %q: observed -parallel 8 summary differs from -parallel 1", name)
		}
	}

	// The observed summaries must also match an unobserved suite: the
	// Observer must not perturb results.
	s, err := NewSuite(Config{Seed: 5, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := s.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range plain {
		if res.Summary() != seq[name] {
			t.Errorf("cell %q: observation perturbed the summary", name)
		}
	}
}

// TestRunAllContextCancel: a pre-cancelled Config.Ctx aborts RunAll
// before any cell runs.
func TestRunAllContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := NewSuite(Config{Seed: 6, Parallel: 2, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunAll(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSingleRunCellsContextCancel: the experiments that run one
// simulation outside the cell pool still honour a cancelled
// Config.Ctx instead of returning a full table.
func TestSingleRunCellsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Seed: 6, Ctx: ctx}
	if _, err := Fig16(cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("Fig16: err = %v, want context.Canceled", err)
	}
	if _, err := Tab4(cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("Tab4: err = %v, want context.Canceled", err)
	}
}

// TestObserverReachesNonSuiteCells: a runner that builds its own cells
// outside the Suite (here the queue-policy table) still feeds the
// Observer from every cell, and observing it changes no row.
func TestObserverReachesNonSuiteCells(t *testing.T) {
	var events atomic.Int64
	observer := func(obs.Event) { events.Add(1) }
	observed, err := QueuePolicies(Config{Seed: 5, Scale: ScaleSmall, Parallel: 2, Observer: observer})
	if err != nil {
		t.Fatal(err)
	}
	if events.Load() == 0 {
		t.Fatal("observer saw no events from the queue-policy cells")
	}
	plain, err := QueuePolicies(Config{Seed: 5, Scale: ScaleSmall, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(observed.Rows) != len(plain.Rows) {
		t.Fatalf("observed table has %d rows, unobserved %d", len(observed.Rows), len(plain.Rows))
	}
	for i, row := range plain.Rows {
		if !slices.Equal(observed.Rows[i], row) {
			t.Errorf("row %d: observed %v, unobserved %v", i, observed.Rows[i], row)
		}
	}
}
