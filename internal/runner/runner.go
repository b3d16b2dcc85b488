// Package runner is the parallel experiment engine: a bounded worker
// pool that fans independent simulation cells (policy × seed ×
// load-factor × configuration points) across CPUs and merges their
// results deterministically.
//
// The engine makes one guarantee: for cells that are pure functions of
// their inputs — each cell owns its policy instance, its RNG streams
// (derive them with xrand.DeriveSeed), and every other piece of
// mutable state it touches — the merged output is bit-for-bit
// identical regardless of worker count or OS scheduling. Three
// properties deliver that:
//
//   - results are stored at the cell's input index, never in
//     completion order;
//   - with one worker the cells run inline in index order, so the
//     parallel engine at -parallel 1 is the sequential engine;
//   - when cells fail, every cell still runs and the reported error is
//     the lowest-indexed cell's, so even the failure mode is
//     independent of scheduling.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Pool bounds how many cells execute concurrently. The zero value is
// not ready; use New.
type Pool struct {
	workers int
}

// New returns a pool running at most n cells at once; n <= 0 selects
// runtime.GOMAXPROCS(0) (all available cores).
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n}
}

// Workers reports the concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// MapCtx runs fn(0..n-1) across the pool and returns the results in
// index order. out[i] is always cell i's result; the error, if any, is
// the lowest-indexed failing cell's, wrapped with its index. ctx is
// checked before each cell starts, and once it is done no further cells
// begin (in-flight cells run to completion — cells are not individually
// interruptible). A cancelled run returns ctx.Err(); cancellation takes
// precedence over cell errors, because an aborted run's cell results
// are incomplete by construction, not wrong.
func MapCtx[T any](ctx context.Context, p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]T, n)
	errs := make([]error, n)
	run := func(i int) { out[i], errs[i] = fn(i) }
	if p.workers == 1 || n <= 1 {
		// Inline sequential path: identical call order to a plain loop,
		// no goroutines — this *is* the sequential engine.
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			run(i)
		}
	} else {
		workers := p.workers
		if workers > n {
			workers = n
		}
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					run(i)
				}
			}()
		}
	feed:
		// select picks at random among ready cases, so a done context
		// must also be checked before each send or cells could still run.
		for i := 0; i < n && ctx.Err() == nil; i++ {
			select {
			case <-ctx.Done():
				break feed
			case idx <- i:
			}
		}
		close(idx)
		wg.Wait()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("runner: cell %d: %w", i, err)
		}
	}
	return out, nil
}

// Cell labels one unit of work with a stable key used in error
// messages and by callers to merge results by cell identity.
type Cell[T any] struct {
	Key string
	Run func() (T, error)
}

// Run executes labeled cells across the pool and returns the results
// in input order (cell keys give the deterministic merge order — the
// caller constructs the cell slice in key order). On failure the error
// names the lowest-indexed failing cell's key.
func Run[T any](p *Pool, cells []Cell[T]) ([]T, error) {
	return RunCtx(context.Background(), p, cells)
}

// RunCtx is Run with cancellation, with MapCtx's semantics: no new
// cells start after ctx is done and the run reports ctx.Err().
func RunCtx[T any](ctx context.Context, p *Pool, cells []Cell[T]) ([]T, error) {
	out, err := MapCtx(ctx, p, len(cells), func(i int) (T, error) {
		v, err := cells[i].Run()
		if err != nil {
			return v, fmt.Errorf("cell %q: %w", cells[i].Key, err)
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
