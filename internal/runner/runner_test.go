package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(workers)
		out, err := MapCtx(context.Background(), p, 64, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapParallelMatchesSequential(t *testing.T) {
	fn := func(i int) (string, error) { return fmt.Sprintf("cell-%03d", i), nil }
	seq, err := MapCtx(context.Background(), New(1), 50, fn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MapCtx(context.Background(), New(8), 50, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("out[%d]: sequential %q != parallel %q", i, seq[i], par[i])
		}
	}
}

func TestMapReportsLowestIndexedError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 8} {
		_, err := MapCtx(context.Background(), New(workers), 20, func(i int) (int, error) {
			if i == 7 || i == 13 {
				return 0, fmt.Errorf("cell failure %d: %w", i, sentinel)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: want error", workers)
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: error chain lost: %v", workers, err)
		}
		if !strings.Contains(err.Error(), "cell 7") {
			t.Fatalf("workers=%d: want lowest-indexed cell 7 reported, got %v", workers, err)
		}
	}
}

func TestMapRunsAllCellsDespiteError(t *testing.T) {
	var ran atomic.Int64
	_, err := MapCtx(context.Background(), New(4), 16, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("early failure")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if got := ran.Load(); got != 16 {
		t.Fatalf("ran %d cells, want all 16 (no early abort)", got)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, max atomic.Int64
	var mu sync.Mutex
	p := New(workers)
	_, err := MapCtx(context.Background(), p, 30, func(i int) (int, error) {
		n := cur.Add(1)
		mu.Lock()
		if n > max.Load() {
			max.Store(n)
		}
		mu.Unlock()
		runtime.Gosched()
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > workers {
		t.Fatalf("observed %d concurrent cells, pool bound is %d", m, workers)
	}
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		if got, want := New(n).Workers(), runtime.GOMAXPROCS(0); got != want {
			t.Fatalf("New(%d).Workers() = %d, want %d", n, got, want)
		}
	}
	if got := New(5).Workers(); got != 5 {
		t.Fatalf("New(5).Workers() = %d", got)
	}
}

func TestMapZeroAndOneCells(t *testing.T) {
	out, err := MapCtx(context.Background(), New(8), 0, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("n=0: out=%v err=%v", out, err)
	}
	out, err = MapCtx(context.Background(), New(8), 1, func(i int) (int, error) { return 42, nil })
	if err != nil || len(out) != 1 || out[0] != 42 {
		t.Fatalf("n=1: out=%v err=%v", out, err)
	}
}

func TestRunNamesFailingCellKey(t *testing.T) {
	cells := []Cell[int]{
		{Key: "mudi/seed=1", Run: func() (int, error) { return 1, nil }},
		{Key: "gslice/seed=1", Run: func() (int, error) { return 0, errors.New("sim diverged") }},
		{Key: "muxflow/seed=1", Run: func() (int, error) { return 3, nil }},
	}
	_, err := Run(New(2), cells)
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), `"gslice/seed=1"`) {
		t.Fatalf("error should name the failing cell key, got %v", err)
	}
}

func TestRunReturnsResultsInInputOrder(t *testing.T) {
	var cells []Cell[string]
	for i := 0; i < 20; i++ {
		i := i
		cells = append(cells, Cell[string]{
			Key: fmt.Sprintf("k%02d", i),
			Run: func() (string, error) { return fmt.Sprintf("v%02d", i), nil },
		})
	}
	out, err := Run(New(6), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if want := fmt.Sprintf("v%02d", i); v != want {
			t.Fatalf("out[%d] = %q, want %q", i, v, want)
		}
	}
}
