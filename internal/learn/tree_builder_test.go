package learn

import (
	"sort"
	"sync"
	"testing"

	"mudi/internal/xrand"
)

// referenceBuildTree is the pre-treeBuilder implementation, kept
// verbatim (per-node allocations, sort.Slice, rng.Perm) as the oracle
// for the scratch-buffer rewrite: both must produce bit-identical
// trees from identical RNG streams — including tie-breaks, since
// sort.Sort and sort.Slice run the same generated pdqsort.
func referenceBuildTree(x [][]float64, y []float64, idx []int, depth, minLeaf, mtry int, rng *xrand.Rand) *treeNode {
	mean := 0.0
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))
	if depth == 0 || len(idx) <= minLeaf {
		return &treeNode{terminal: true, value: mean}
	}
	var sse float64
	for _, i := range idx {
		d := y[i] - mean
		sse += d * d
	}
	if sse < 1e-12 {
		return &treeNode{terminal: true, value: mean}
	}
	w := len(x[0])
	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0
	features := rng.Perm(w)[:mtry]
	order := make([]int, len(idx))
	for _, feat := range features {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return x[order[a]][feat] < x[order[b]][feat] })
		var totalSum, totalSq float64
		for _, i := range order {
			totalSum += y[i]
			totalSq += y[i] * y[i]
		}
		n := float64(len(order))
		var leftSum, leftSq float64
		for j := 0; j < len(order)-1; j++ {
			yi := y[order[j]]
			leftSum += yi
			leftSq += yi * yi
			vj, vj1 := x[order[j]][feat], x[order[j+1]][feat]
			if vj == vj1 {
				continue
			}
			nl := float64(j + 1)
			nr := n - nl
			sseL := leftSq - leftSum*leftSum/nl
			rightSum := totalSum - leftSum
			sseR := (totalSq - leftSq) - rightSum*rightSum/nr
			if gain := sse - (sseL + sseR); gain > bestGain {
				bestGain, bestFeat, bestThresh = gain, feat, (vj+vj1)/2
			}
		}
	}
	if bestFeat < 0 {
		return &treeNode{terminal: true, value: mean}
	}
	var loIdx, hiIdx []int
	for _, i := range idx {
		if x[i][bestFeat] <= bestThresh {
			loIdx = append(loIdx, i)
		} else {
			hiIdx = append(hiIdx, i)
		}
	}
	return &treeNode{
		feature: bestFeat,
		thresh:  bestThresh,
		lo:      referenceBuildTree(x, y, loIdx, depth-1, minLeaf, mtry, rng),
		hi:      referenceBuildTree(x, y, hiIdx, depth-1, minLeaf, mtry, rng),
	}
}

func sameTree(t *testing.T, a, b *treeNode, path string) {
	t.Helper()
	if a.terminal != b.terminal {
		t.Fatalf("%s: terminal %v != %v", path, a.terminal, b.terminal)
	}
	if a.terminal {
		if a.value != b.value {
			t.Fatalf("%s: value %v != %v", path, a.value, b.value)
		}
		return
	}
	if a.feature != b.feature || a.thresh != b.thresh {
		t.Fatalf("%s: split (%d, %v) != (%d, %v)", path, a.feature, a.thresh, b.feature, b.thresh)
	}
	sameTree(t, a.lo, b.lo, path+"L")
	sameTree(t, a.hi, b.hi, path+"R")
}

// TestTreeBuilderBitIdentical fuzzes the scratch-buffer tree builder
// against the reference across dataset sizes, depths, feature-subset
// sizes, bootstrap index multisets, and tie-heavy features; then the
// sort-memo path across boosting rounds, GBRT.Fit against a reference
// boosting loop, and both on predictor-shaped data. The comparison is
// exact (== on thresholds, leaf values and predictions).
func TestTreeBuilderBitIdentical(t *testing.T) {
	t.Run("bootstrap", testTreeBuilderBootstrap)
	t.Run("memo-rounds", testTreeBuilderMemoRounds)
	t.Run("gbrt-fit", testGBRTFitMatchesReference)
	t.Run("predictor-shaped", testTreeBuilderPredictorShaped)
}

func testTreeBuilderBootstrap(t *testing.T) {
	rng := xrand.New(0x7ee5)
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(60)
		w := 1 + rng.Intn(6)
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = make([]float64, w)
			for j := range x[i] {
				if trial%2 == 0 {
					// Tie-heavy features exercise equal sort keys and the
					// vj == vj1 skip in the split scan.
					x[i][j] = float64(rng.Intn(4))
				} else {
					x[i][j] = rng.Range(-5, 5)
				}
			}
			y[i] = rng.Range(0, 10)
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n) // bootstrap-style multiset, like Forest.Fit
		}
		depth := 1 + rng.Intn(6)
		mtry := 1 + rng.Intn(w)
		seed := rng.Uint64()

		want := referenceBuildTree(x, y, idx, depth, 2, mtry, xrand.New(seed))

		idxCopy := append([]int(nil), idx...)
		var tb treeBuilder
		tb.begin(x, y, 2, mtry)
		got := tb.build(idx, depth, xrand.New(seed))

		sameTree(t, want, got, "·")
		// build must not mutate the caller's index slice (GBRT reuses
		// one identity slice across boosting rounds).
		for i := range idx {
			if idx[i] != idxCopy[i] {
				t.Fatalf("trial %d: caller idx mutated at %d", trial, i)
			}
		}

		// A second build on the same (reset) builder reuses the arena;
		// the first tree must not be needed anymore, the new one must
		// still be exact.
		tb.begin(x, y, 2, mtry)
		again := tb.build(idxCopy, depth, xrand.New(seed))
		sameTree(t, want, again, "·")
	}
}

// boostingData draws n rows of w features. Tie-heavy columns take four
// values, and the last column of a tie-heavy set is constant, so the
// sorts see long runs of equal keys and the scan sees a feature with
// no boundary.
func boostingData(rng *xrand.Rand, n, w int, ties bool) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, w)
		for j := range x[i] {
			switch {
			case ties && j == w-1 && w > 1:
				x[i][j] = 2
			case ties:
				x[i][j] = float64(rng.Intn(4))
			default:
				x[i][j] = rng.Range(-5, 5)
			}
		}
		y[i] = rng.Range(0, 10)
	}
	return x, y
}

// testTreeBuilderMemoRounds builds boosting rounds on the identity row
// set with the sort memo on and the residuals changing between rounds:
// each tree must equal the reference built from scratch. Sizes cross
// pdqsort's insertion-sort cutoff (12) and its ninther cutoff (50).
func testTreeBuilderMemoRounds(t *testing.T) {
	rng := xrand.New(0x3e30)
	for trial, n := range []int{13, 29, 65, 97, 180, 300} {
		w := 2 + rng.Intn(5)
		x, y := boostingData(rng, n, w, trial%3 != 2)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		var tb treeBuilder
		tb.begin(x, y, 2, w)
		tb.memo = new(sortMemo)
		tb.memo.reset(n, w, 0)
		for round := 0; round < 60; round++ {
			depth := 1 + rng.Intn(4)
			seed := rng.Uint64()
			want := referenceBuildTree(x, y, idx, depth, 2, w, xrand.New(seed))
			got := tb.build(idx, depth, xrand.New(seed))
			sameTree(t, want, got, "·")
			// The same round again is served from the memo: no new
			// entries, the same tree.
			entries := len(tb.memo.nodes)
			again := tb.build(idx, depth, xrand.New(seed))
			sameTree(t, want, again, "·")
			if len(tb.memo.nodes) != entries {
				t.Fatalf("n=%d round %d: repeated build added %d memo nodes", n, round, len(tb.memo.nodes)-entries)
			}
			for i := range y {
				y[i] -= 0.1 * want.eval(x[i])
			}
		}
		// The root's memoized orders are the reference sort's
		// permutations, ties included.
		root := tb.memo.find(rootKey)
		if root < 0 {
			t.Fatalf("n=%d: root never memoized", n)
		}
		off := tb.memo.nodes[root].off
		for feat := 0; feat < w; feat++ {
			order := append([]int(nil), idx...)
			sort.Slice(order, func(a, b int) bool { return x[order[a]][feat] < x[order[b]][feat] })
			for k, row := range tb.memo.arena[int(off)+feat*n : int(off)+(feat+1)*n] {
				if int(row) != order[k] {
					t.Fatalf("n=%d feature %d: memoized order differs from the reference sort at %d", n, feat, k)
				}
			}
		}
		for i := range idx {
			if idx[i] != i {
				t.Fatalf("n=%d: caller idx mutated at %d", n, i)
			}
		}
	}
}

// referenceGBRTPredict is GBRT.Fit's boosting loop on referenceBuildTree,
// evaluated at q.
func referenceGBRTPredict(x [][]float64, y []float64, trees, depth int, rate float64, seed uint64, q [][]float64) []float64 {
	n := len(x)
	base := 0.0
	for _, v := range y {
		base += v
	}
	base /= float64(n)
	residual := make([]float64, n)
	for i, v := range y {
		residual[i] = v - base
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng := xrand.New(seed + 0x6b)
	var fitted []*treeNode
	for round := 0; round < trees; round++ {
		tree := referenceBuildTree(x, residual, idx, depth, 2, len(x[0]), rng.Fork(uint64(round)))
		fitted = append(fitted, tree)
		for i := range residual {
			residual[i] -= rate * tree.eval(x[i])
		}
	}
	out := make([]float64, len(q))
	for k, row := range q {
		sum := base
		for _, tree := range fitted {
			sum += rate * tree.eval(row)
		}
		out[k] = sum
	}
	return out
}

// testGBRTFitMatchesReference checks GBRT.Fit (memo, pooled arena)
// against the reference loop, refitting one instance on datasets of
// different shapes so the pooled arena is reused across sizes.
func testGBRTFitMatchesReference(t *testing.T) {
	rng := xrand.New(0x6b7)
	g := NewGBRT(60, 3)
	for trial, n := range []int{20, 70, 150, 40} {
		w := 2 + rng.Intn(5)
		x, y := boostingData(rng, n, w, trial%2 == 0)
		q, _ := boostingData(rng, 30, w, trial%2 == 0)
		q = append(q, x...)
		want := referenceGBRTPredict(x, y, 60, 3, 0.1, 3, q)
		if err := g.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		for k, row := range q {
			if got := g.Predict(row); got != want[k] {
				t.Fatalf("n=%d query %d: GBRT %v != reference %v", n, k, got, want[k])
			}
		}
	}
}

// testTreeBuilderPredictorShaped runs the builder on the Interference
// Predictor's data shape, where ties are the rule: 11 integer columns
// constant within each 6-row co-location (two of them constant
// overall, and all 11 with one co-location) plus log2(batch). Forest
// trees on bootstrap rows must equal the reference, and GBRT.Fit must
// equal the reference boosting loop, whose residuals go through
// tree.eval.
func testTreeBuilderPredictorShaped(t *testing.T) {
	rng := xrand.New(0x9e12)
	g := NewGBRT(60, 5)
	for trial, groups := range []int{1, 2, 5, 16, 40, 100} {
		x, y, _ := predictorShaped(rng, groups, targetKind(trial%2)) // noisy, then some zero
		n, w := len(x), len(x[0])
		var tb treeBuilder
		tb.begin(x, y, 2, 3)
		idx := make([]int, n)
		for tree := 0; tree < 10; tree++ {
			for i := range idx {
				idx[i] = rng.Intn(n)
			}
			seed := rng.Uint64()
			want := referenceBuildTree(x, y, idx, 6, 2, 3, xrand.New(seed))
			sameTree(t, want, tb.build(idx, 6, xrand.New(seed)), "·")
		}

		q, _, _ := predictorShaped(rng, 3, noisy)
		q = append(q, x...)
		want := referenceGBRTPredict(x, y, 60, 3, 0.1, 5, q)
		if err := g.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		for k, row := range q {
			if got := g.Predict(row); got != want[k] {
				t.Fatalf("n=%d w=%d query %d: GBRT %v != reference %v", n, w, k, got, want[k])
			}
		}
	}
}

// TestGBRTConcurrentFits fits GBRT models on different datasets in
// parallel goroutines: each fit borrows its own sort memo from the
// pool, so every model must match the same fit run alone (and the race
// detector must stay quiet).
func TestGBRTConcurrentFits(t *testing.T) {
	rng := xrand.New(0xc0c)
	const fits = 4
	var xs [fits][][]float64
	var ys [fits][]float64
	var want [fits]float64
	for k := range xs {
		xs[k], ys[k] = boostingData(rng, 40+30*k, 4, k%2 == 0)
		g := NewGBRT(60, 1)
		if err := g.Fit(xs[k], ys[k]); err != nil {
			t.Fatal(err)
		}
		want[k] = g.Predict(xs[k][0])
	}
	var wg sync.WaitGroup
	var got [fits]float64
	errs := make(chan error, fits)
	for k := range xs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			g := NewGBRT(60, 1)
			for rep := 0; rep < 3; rep++ {
				if err := g.Fit(xs[k], ys[k]); err != nil {
					errs <- err
					return
				}
			}
			got[k] = g.Predict(xs[k][0])
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("concurrent fits %v != sequential %v", got, want)
	}
}
