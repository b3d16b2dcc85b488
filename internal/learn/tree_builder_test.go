package learn

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"mudi/internal/xrand"
)

// referenceBuildTree is the oracle for treeBuilder, written naively
// and independently of it (per-node allocations, rng.Perm, a map from
// each value to its rows' sums): both must produce bit-identical trees
// from identical RNG streams. Its split scan adds each value's Σy and
// Σy² in node-row order, then sums those per-value totals in ascending
// value order, which fixes every floating-point addition of the scan.
func referenceBuildTree(x [][]float64, y []float64, idx []int, depth, minLeaf, mtry int, rng *xrand.Rand) *treeNode {
	var totalSum, totalSq float64
	for _, i := range idx {
		totalSum += y[i]
		totalSq += y[i] * y[i]
	}
	mean := totalSum / float64(len(idx))
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
	n := float64(len(idx))
	type group struct {
		n       int
		sum, sq float64
	}
	for _, feat := range features {
		groups := map[float64]*group{}
		var values []float64
		for _, i := range idx {
			v := x[i][feat]
			g := groups[v]
			if g == nil {
				g = &group{}
				groups[v] = g
				values = append(values, v)
			}
			g.n++
			g.sum += y[i]
			g.sq += y[i] * y[i]
		}
		sort.Float64s(values)
		var left group
		for k := 0; k+1 < len(values); k++ {
			g := groups[values[k]]
			left.n += g.n
			left.sum += g.sum
			left.sq += g.sq
			nl := float64(left.n)
			nr := n - nl
			sseL := left.sq - left.sum*left.sum/nl
			rightSum := totalSum - left.sum
			sseR := (totalSq - left.sq) - rightSum*rightSum/nr
			if gain := sse - (sseL + sseR); gain > bestGain {
				// The midpoint, unless it rounds up to the higher value.
				thresh := (values[k] + values[k+1]) / 2
				if thresh >= values[k+1] {
					thresh = values[k]
				}
				bestGain, bestFeat, bestThresh = gain, feat, thresh
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

// TestTreeBuilderBitIdentical fuzzes the tree builder against the
// reference across dataset sizes, depths, feature-subset sizes,
// bootstrap index multisets, and tie-heavy features; then one builder
// across boosting rounds, GBRT.Fit against a reference boosting loop,
// and both on predictor-shaped data. The comparison is exact (== on
// thresholds, leaf values and predictions).
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
					// Tie-heavy features put many rows in one value's
					// bin and leave bins empty inside a node's range.
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
// scan sees many rows per value and a feature with no boundary.
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
// set with one builder and the residuals changing between rounds: each
// tree must equal the reference built from scratch, and building the
// same round again must give the same tree.
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
		for round := 0; round < 60; round++ {
			depth := 1 + rng.Intn(4)
			seed := rng.Uint64()
			want := referenceBuildTree(x, y, idx, depth, 2, w, xrand.New(seed))
			got := tb.build(idx, depth, xrand.New(seed))
			sameTree(t, want, got, "·")
			again := tb.build(idx, depth, xrand.New(seed))
			sameTree(t, want, again, "·")
			for i := range y {
				y[i] -= 0.1 * want.eval(x[i])
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

// testGBRTFitMatchesReference checks GBRT.Fit against the reference
// loop, refitting one instance on datasets of different shapes so its
// scratch is reused across sizes.
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
// parallel goroutines: fits share no state, so every model must match
// the same fit run alone (and the race detector must stay quiet).
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

// TestSplitIsBest checks every node of built trees against a brute-
// force scan. An internal node's split must reach the largest SSE
// reduction over the features it examined, and a node the builder made
// a leaf after its checks must have no split that reduces the SSE,
// both within 1e-9 of the node's SSE. The scan computes each side's
// SSE from its rows in two passes, so the check does not depend on the
// builder's summation order. The data shapes are tie-heavy (with a
// constant column), continuous and predictor-shaped, each on identity
// and bootstrap row sets.
func TestSplitIsBest(t *testing.T) {
	rng := xrand.New(0x5b1e)
	for trial := 0; trial < 300; trial++ {
		var x [][]float64
		var y []float64
		switch trial % 3 {
		case 0:
			x, y = boostingData(rng, 4+rng.Intn(80), 1+rng.Intn(6), true)
		case 1:
			x, y = boostingData(rng, 4+rng.Intn(80), 1+rng.Intn(6), false)
		case 2:
			x, y, _ = predictorShaped(rng, 1+rng.Intn(12), noisy)
		}
		n, w := len(x), len(x[0])
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
			if trial%2 == 1 {
				idx[i] = rng.Intn(n) // bootstrap multiset, like Forest.Fit
			}
		}
		depth, mtry, seed := 1+rng.Intn(6), 1+rng.Intn(w), rng.Uint64()
		var tb treeBuilder
		tb.begin(x, y, 2, mtry)
		root := tb.build(idx, depth, xrand.New(seed))
		c := splitCheck{t: t, x: x, y: y, mtry: mtry, rng: xrand.New(seed), perm: make([]int, w)}
		c.walk(root, idx, depth, fmt.Sprintf("trial %d ·", trial))
	}
}

// splitCheck walks a built tree with the rows that reach each node,
// replaying the builder's per-node RNG draws to know which features a
// node examined.
type splitCheck struct {
	t    *testing.T
	x    [][]float64
	y    []float64
	mtry int
	rng  *xrand.Rand
	perm []int
}

func (c *splitCheck) walk(nd *treeNode, rows []int, depth int, path string) {
	c.t.Helper()
	// The builder's leaf checks, in its arithmetic: it draws a feature
	// subset only at nodes that pass them.
	mean := 0.0
	for _, i := range rows {
		mean += c.y[i]
	}
	mean /= float64(len(rows))
	var sse float64
	for _, i := range rows {
		d := c.y[i] - mean
		sse += d * d
	}
	if depth == 0 || len(rows) <= 2 || sse < 1e-12 {
		if !nd.terminal {
			c.t.Fatalf("%s: split a node its checks make a leaf", path)
		}
		return
	}
	c.rng.PermInto(c.perm)
	features := c.perm[:c.mtry]
	best := 0.0
	for _, f := range features {
		for _, thresh := range midpoints(c.x, rows, f) {
			best = max(best, c.gain(rows, f, thresh))
		}
	}
	tol := 1e-9 * sse
	if nd.terminal {
		if best > tol {
			c.t.Fatalf("%s: leaf, but a split reduces its SSE by %v", path, best)
		}
		return
	}
	if !slices.Contains(features, nd.feature) {
		c.t.Fatalf("%s: split on feature %d, examined %v", path, nd.feature, features)
	}
	if got := c.gain(rows, nd.feature, nd.thresh); got < best-tol {
		c.t.Fatalf("%s: split (%d, %v) reduces SSE by %v, best is %v", path, nd.feature, nd.thresh, got, best)
	}
	lo, hi := partition(c.x, rows, nd.feature, nd.thresh)
	c.walk(nd.lo, lo, depth-1, path+"L")
	c.walk(nd.hi, hi, depth-1, path+"R")
}

// gain is the SSE reduction of splitting rows at x[feat] <= thresh.
func (c *splitCheck) gain(rows []int, feat int, thresh float64) float64 {
	lo, hi := partition(c.x, rows, feat, thresh)
	return twoPassSSE(c.y, rows) - twoPassSSE(c.y, lo) - twoPassSSE(c.y, hi)
}

// midpoints lists the midpoints between adjacent distinct values of
// feature feat among rows: the only thresholds that split them
// differently.
func midpoints(x [][]float64, rows []int, feat int) []float64 {
	var vals []float64
	for _, i := range rows {
		vals = append(vals, x[i][feat])
	}
	sort.Float64s(vals)
	vals = slices.Compact(vals)
	var mids []float64
	for k := 0; k+1 < len(vals); k++ {
		// The midpoint, unless it rounds up to the higher value.
		mid := (vals[k] + vals[k+1]) / 2
		if mid >= vals[k+1] {
			mid = vals[k]
		}
		mids = append(mids, mid)
	}
	return mids
}

// partition splits rows at x[feat] <= thresh, keeping their order.
func partition(x [][]float64, rows []int, feat int, thresh float64) (lo, hi []int) {
	for _, i := range rows {
		if x[i][feat] <= thresh {
			lo = append(lo, i)
		} else {
			hi = append(hi, i)
		}
	}
	return lo, hi
}

func twoPassSSE(y []float64, rows []int) float64 {
	if len(rows) == 0 {
		return 0
	}
	mean := 0.0
	for _, i := range rows {
		mean += y[i]
	}
	mean /= float64(len(rows))
	var sse float64
	for _, i := range rows {
		d := y[i] - mean
		sse += d * d
	}
	return sse
}

// TestAdjacentFloatSplit fits trees on two adjacent float64 values
// a < b, whose midpoint rounds to b. The split must still send a low
// and b high: both ensembles tell the two values apart and predict a
// finite value beyond them.
func TestAdjacentFloatSplit(t *testing.T) {
	a := 1 + math.Ldexp(1, -52)
	b := math.Nextafter(a, 2)
	if (a+b)/2 != b {
		t.Fatalf("midpoint of %v and %v does not round to b", a, b)
	}
	var x [][]float64
	var y []float64
	for i := 0; i < 8; i++ {
		x = append(x, []float64{a}, []float64{b})
		y = append(y, 0, 10)
	}
	for name, m := range map[string]Regressor{"forest": NewForest(5, 1), "gbrt": NewGBRT(20, 1)} {
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		pa, pb, p2 := m.Predict([]float64{a}), m.Predict([]float64{b}), m.Predict([]float64{2})
		if !(pa < pb) {
			t.Errorf("%s: predict(a) = %v, predict(b) = %v", name, pa, pb)
		}
		if math.IsNaN(p2) || math.IsInf(p2, 0) {
			t.Errorf("%s: predict(2) = %v", name, p2)
		}
	}
}
