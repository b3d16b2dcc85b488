// Package learn implements the lightweight regressors used by Mudi's
// Interference Modeler (§4.1.2): random forest, k-nearest-neighbour,
// kernel ridge regression (the SVR stand-in), and linear regression,
// plus per-target model selection by cross-validation and incremental
// refitting for new workloads (Fig. 11/12).
package learn

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"mudi/internal/fit"
	"mudi/internal/xrand"
)

// Regressor is a single-output regression model.
type Regressor interface {
	// Fit trains on the dataset. Rows of x must share one width.
	Fit(x [][]float64, y []float64) error
	// Predict evaluates the model at one input vector.
	Predict(x []float64) float64
	// Name identifies the model family (for Fig. 11's per-bar labels).
	Name() string
}

// ErrNoData reports fitting with an empty dataset.
var ErrNoData = errors.New("learn: empty dataset")

// ErrNonFinite reports fitting with a NaN or infinite input or target:
// NaN has no place in a feature's value order, so no split could be
// scored around it.
var ErrNonFinite = errors.New("learn: non-finite value")

func checkShape(x [][]float64, y []float64) (int, error) {
	if len(x) == 0 || len(y) != len(x) {
		return 0, fmt.Errorf("%w: %d inputs, %d targets", ErrNoData, len(x), len(y))
	}
	w := len(x[0])
	for i, row := range x {
		if len(row) != w {
			return 0, fmt.Errorf("learn: ragged input at row %d", i)
		}
		for f, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("%w: input %v at row %d, feature %d", ErrNonFinite, v, i, f)
			}
		}
		if math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
			return 0, fmt.Errorf("%w: target %v at row %d", ErrNonFinite, y[i], i)
		}
	}
	return w, nil
}

// scaler standardizes features to zero mean and unit variance — without
// it, distance-based models (kNN, kernel ridge) are dominated by the
// large-magnitude layer-count features and mean-revert on unseen
// architectures.
type scaler struct {
	mean, std []float64
}

func fitScaler(x [][]float64) *scaler {
	w := len(x[0])
	s := &scaler{mean: make([]float64, w), std: make([]float64, w)}
	n := float64(len(x))
	for _, row := range x {
		for j, v := range row {
			s.mean[j] += v
		}
	}
	for j := range s.mean {
		s.mean[j] /= n
	}
	for _, row := range x {
		for j, v := range row {
			d := v - s.mean[j]
			s.std[j] += d * d
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / n)
		if s.std[j] < 1e-9 {
			s.std[j] = 1
		}
	}
	return s
}

func (s *scaler) apply(row []float64) []float64 {
	out := make([]float64, len(s.mean))
	for j := range out {
		v := 0.0
		if j < len(row) {
			v = row[j]
		}
		out[j] = (v - s.mean[j]) / s.std[j]
	}
	return out
}

// ---------------------------------------------------------------------------
// Linear regression

// Linear is ordinary least squares with an intercept.
type Linear struct {
	beta []float64 // [intercept, coefficients...]
}

// NewLinear returns an untrained linear regressor.
func NewLinear() *Linear { return &Linear{} }

// Name implements Regressor.
func (l *Linear) Name() string { return "LR" }

// Fit implements Regressor.
func (l *Linear) Fit(x [][]float64, y []float64) error {
	w, err := checkShape(x, y)
	if err != nil {
		return err
	}
	design := make([][]float64, len(x))
	for i, row := range x {
		d := make([]float64, w+1)
		d[0] = 1
		copy(d[1:], row)
		design[i] = d
	}
	beta, err := fit.LeastSquares(design, y)
	if err != nil {
		return err
	}
	l.beta = beta
	return nil
}

// Predict implements Regressor.
func (l *Linear) Predict(x []float64) float64 {
	if l.beta == nil {
		return 0
	}
	sum := l.beta[0]
	for i, v := range x {
		if i+1 < len(l.beta) {
			sum += l.beta[i+1] * v
		}
	}
	return sum
}

// ---------------------------------------------------------------------------
// k-nearest neighbours

// KNN predicts the inverse-distance-weighted mean of the k nearest
// training targets.
type KNN struct {
	K     int
	xs    [][]float64
	ys    []float64
	scale *scaler
}

// NewKNN returns a k-nearest-neighbour regressor (k defaults to 3 at
// fit time if non-positive).
func NewKNN(k int) *KNN { return &KNN{K: k} }

// Name implements Regressor.
func (k *KNN) Name() string { return "kNN" }

// Fit implements Regressor.
func (k *KNN) Fit(x [][]float64, y []float64) error {
	if _, err := checkShape(x, y); err != nil {
		return err
	}
	if k.K <= 0 {
		k.K = 3
	}
	k.scale = fitScaler(x)
	k.xs = make([][]float64, len(x))
	for i := range x {
		k.xs[i] = k.scale.apply(x[i])
	}
	k.ys = append([]float64(nil), y...)
	return nil
}

// knnDist pairs a training target with its distance to the query; the
// concrete sort.Interface on the slice avoids sort.Slice's per-call
// reflection allocations while running the same pdqsort.
type knnDist struct {
	d float64
	y float64
}

type byDist []knnDist

func (s byDist) Len() int           { return len(s) }
func (s byDist) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s byDist) Less(i, j int) bool { return s[i].d < s[j].d }

// Predict implements Regressor.
func (k *KNN) Predict(x []float64) float64 {
	if len(k.xs) == 0 {
		return 0
	}
	x = k.scale.apply(x)
	ds := make(byDist, len(k.xs))
	for i, row := range k.xs {
		var sum float64
		for j := range row {
			if j < len(x) {
				d := row[j] - x[j]
				sum += d * d
			}
		}
		ds[i] = knnDist{d: math.Sqrt(sum), y: k.ys[i]}
	}
	sort.Sort(ds)
	n := k.K
	if n > len(ds) {
		n = len(ds)
	}
	var wsum, ysum float64
	for i := 0; i < n; i++ {
		w := 1 / (ds[i].d + 1e-9)
		wsum += w
		ysum += w * ds[i].y
	}
	return ysum / wsum
}

// ---------------------------------------------------------------------------
// Kernel ridge regression (SVR stand-in)

// KernelRidge performs ridge regression in an RBF feature space — the
// closed-form cousin of support vector regression, matching the paper's
// "SVR" model family.
type KernelRidge struct {
	Gamma  float64 // RBF width; default 1/width at fit time
	Lambda float64 // ridge strength; default 1e-3
	xs     [][]float64
	alpha  []float64
	yMean  float64
	scale  *scaler
}

// NewKernelRidge returns an RBF kernel ridge regressor.
func NewKernelRidge(gamma, lambda float64) *KernelRidge {
	return &KernelRidge{Gamma: gamma, Lambda: lambda}
}

// Name implements Regressor.
func (k *KernelRidge) Name() string { return "SVR" }

func (k *KernelRidge) kernel(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Exp(-k.Gamma * sum)
}

// Fit implements Regressor.
func (k *KernelRidge) Fit(x [][]float64, y []float64) error {
	w, err := checkShape(x, y)
	if err != nil {
		return err
	}
	if k.Gamma <= 0 {
		k.Gamma = 1 / float64(w)
	}
	if k.Lambda <= 0 {
		k.Lambda = 1e-3
	}
	n := len(x)
	k.scale = fitScaler(x)
	k.xs = make([][]float64, n)
	for i := range x {
		k.xs[i] = k.scale.apply(x[i])
	}
	k.yMean = 0
	for _, v := range y {
		k.yMean += v
	}
	k.yMean /= float64(n)

	gram := make([][]float64, n)
	for i := 0; i < n; i++ {
		gram[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := k.kernel(k.xs[i], k.xs[j])
			gram[i][j] = v
			gram[j][i] = v
		}
		gram[i][i] += k.Lambda
	}
	centered := make([]float64, n)
	for i, v := range y {
		centered[i] = v - k.yMean
	}
	l, err := fit.Cholesky(gram)
	if err != nil {
		return err
	}
	k.alpha = fit.CholSolve(l, centered)
	return nil
}

// Predict implements Regressor.
func (k *KernelRidge) Predict(x []float64) float64 {
	if k.alpha == nil {
		return 0
	}
	x = k.scale.apply(x)
	sum := k.yMean
	for i, row := range k.xs {
		sum += k.alpha[i] * k.kernel(row, x)
	}
	return sum
}

// ---------------------------------------------------------------------------
// Random forest

// Forest is a random forest of regression trees with bootstrap sampling
// and random feature subsets at each split.
type Forest struct {
	Trees    int // default 30
	MaxDepth int // default 6
	MinLeaf  int // default 2
	Seed     uint64
	trees    []*treeNode
	tb       treeBuilder
	idxBuf   []int // bootstrap-sample scratch, reused across trees
}

// NewForest returns a random forest regressor with the given ensemble
// size (default 30 if non-positive).
func NewForest(trees int, seed uint64) *Forest {
	return &Forest{Trees: trees, Seed: seed}
}

// Name implements Regressor.
func (f *Forest) Name() string { return "RF" }

type treeNode struct {
	feature  int
	thresh   float64
	value    float64
	lo, hi   *treeNode
	terminal bool
}

// Fit implements Regressor.
func (f *Forest) Fit(x [][]float64, y []float64) error {
	w, err := checkShape(x, y)
	if err != nil {
		return err
	}
	if f.Trees <= 0 {
		f.Trees = 30
	}
	if f.MaxDepth <= 0 {
		f.MaxDepth = 6
	}
	if f.MinLeaf <= 0 {
		f.MinLeaf = 2
	}
	rng := xrand.New(f.Seed + 0xf0)
	n := len(x)
	if cap(f.trees) < f.Trees {
		f.trees = make([]*treeNode, f.Trees)
	}
	f.trees = f.trees[:f.Trees]
	// Feature subset size: sqrt heuristic, at least 1.
	mtry := int(math.Sqrt(float64(w)))
	if mtry < 1 {
		mtry = 1
	}
	f.tb.begin(x, y, f.MinLeaf, mtry)
	if cap(f.idxBuf) < n {
		f.idxBuf = make([]int, n)
	}
	for t := 0; t < f.Trees; t++ {
		idx := f.idxBuf[:n]
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		f.trees[t] = f.tb.build(idx, f.MaxDepth, rng.Fork(uint64(t)))
	}
	return nil
}

func (f *Forest) dropScratch() {
	f.tb.dropScratch()
	f.idxBuf = nil
}

// nodeChunk sizes the treeBuilder arena slabs; at depth ≤ 6 a tree has
// at most 127 nodes, so a slab holds one or two typical trees.
const nodeChunk = 128

// treeBuilder carries the dataset and reusable scratch across every
// node of the trees built within one Fit call, and across Fit calls of
// the same model (the cross-validation loop refits up to ~11 times).
//
// Split search is exact and per value: begin sorts each feature once
// per fit and gives every row the dense rank of its value. At a node,
// an examined feature's rows add their count, Σy and Σy² into the
// feature's rank bins in node-row order; a walk over the node's rank
// range then scores the boundary between each pair of adjacent values
// present at the node. The left side's sums accumulate in ascending
// value order and the node's totals in node-row order.
// referenceBuildTree in the tests is the same arithmetic written
// naively, and the fitted trees are bit-identical to it.
//
// A treeBuilder is owned by a single model and is not safe for
// concurrent Fits; Predict never touches it.
type treeBuilder struct {
	xc      []float64 // column-major copy of x: feature f of row i is xc[f*n+i]
	rank    []int32   // dense rank of xc[f*n+i] among feature f's values
	vals    []float64 // feature f's distinct values, ascending, from vals[f*n]: value r is vals[f*n+r]
	y       []float64
	n, w    int
	minLeaf int
	mtry    int

	idxBuf []int      // builder-owned copy of the root index set, partitioned in place
	bins   []rankBin  // one feature's per-value sums at a node; all zero between features
	part   []int      // hi side of the stable partition, copied out before recursing
	perm   []int      // feature-subset scratch
	leaves []leafSpan // the last built tree's leaves, in build order

	// Node arena: fixed-size slabs, so node pointers stay valid as the
	// arena grows. Reset per begin — by then the previous Fit's trees
	// have been discarded by the caller (Fit overwrites the tree slice).
	chunks [][]treeNode
	ci, ni int
}

// rankBin is the count, Σy and Σy² of a node's rows holding one value
// of the feature being scanned.
type rankBin struct {
	n       int
	sum, sq float64
}

// leafSpan is a leaf of the last built tree and the rows that reach it:
// its span of the partitioned idxBuf, which no later node touches.
type leafSpan struct {
	value float64
	rows  []int
}

func (b *treeBuilder) begin(x [][]float64, y []float64, minLeaf, mtry int) {
	n, w := len(x), len(x[0])
	b.y, b.n, b.w, b.minLeaf, b.mtry = y, n, w, minLeaf, mtry
	b.ci, b.ni = 0, 0
	b.xc = slices.Grow(b.xc[:0], n*w)[:n*w]
	for i, row := range x {
		for f, v := range row {
			b.xc[f*n+i] = v
		}
	}
	b.rank = slices.Grow(b.rank[:0], n*w)[:n*w]
	b.vals = slices.Grow(b.vals[:0], n*w)[:n*w]
	bins := 0
	for f := 0; f < w; f++ {
		col, vals := b.xc[f*n:(f+1)*n], b.vals[f*n:(f+1)*n]
		copy(vals, col)
		slices.Sort(vals)
		vals = slices.Compact(vals)
		rank := b.rank[f*n : (f+1)*n]
		for i, v := range col {
			r, _ := slices.BinarySearch(vals, v)
			rank[i] = int32(r)
		}
		bins = max(bins, len(vals))
	}
	if len(b.bins) < bins {
		b.bins = make([]rankBin, bins)
	}
	if cap(b.perm) < w {
		b.perm = make([]int, w)
	}
}

// dropScratch frees everything but the node arena, which holds the
// built trees.
func (b *treeBuilder) dropScratch() {
	*b = treeBuilder{chunks: b.chunks, ci: b.ci, ni: b.ni}
}

func (b *treeBuilder) newNode(n treeNode) *treeNode {
	if b.ci == len(b.chunks) {
		b.chunks = append(b.chunks, make([]treeNode, nodeChunk))
	}
	nd := &b.chunks[b.ci][b.ni]
	*nd = n
	if b.ni++; b.ni == nodeChunk {
		b.ci++
		b.ni = 0
	}
	return nd
}

// build constructs one tree over the given root sample indices. It
// copies idx into builder-owned scratch, so the caller's slice is
// never mutated.
func (b *treeBuilder) build(idx []int, depth int, rng *xrand.Rand) *treeNode {
	b.idxBuf = append(b.idxBuf[:0], idx...)
	if cap(b.part) < len(idx) {
		b.part = make([]int, 0, len(idx))
	}
	b.leaves = b.leaves[:0]
	return b.node(b.idxBuf, depth, rng)
}

// leaf makes a terminal node for the rows of idx.
func (b *treeBuilder) leaf(idx []int, mean float64) *treeNode {
	b.leaves = append(b.leaves, leafSpan{value: mean, rows: idx})
	return b.newNode(treeNode{terminal: true, value: mean})
}

func (b *treeBuilder) node(idx []int, depth int, rng *xrand.Rand) *treeNode {
	y := b.y
	var totalSum, totalSq float64
	for _, i := range idx {
		totalSum += y[i]
		totalSq += y[i] * y[i]
	}
	mean := totalSum / float64(len(idx))
	if depth == 0 || len(idx) <= b.minLeaf {
		return b.leaf(idx, mean)
	}
	// Variance before split.
	var sse float64
	for _, i := range idx {
		d := y[i] - mean
		sse += d * d
	}
	if sse < 1e-12 {
		return b.leaf(idx, mean)
	}
	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0
	rng.PermInto(b.perm[:b.w])
	features := b.perm[:b.mtry]
	n := float64(len(idx))
	bins := b.bins
	for _, feat := range features {
		// Bin the node's rows by the feature's value rank, then walk the
		// bins in ascending order and score every boundary between two
		// values present at the node: the best split minimizes
		//   SSE_left + SSE_right
		// where SSE = Σy² − (Σy)²/n per side. The walk clears each bin
		// it reads, so the bins are zero again for the next feature.
		rank := b.rank[feat*b.n : (feat+1)*b.n]
		lo, hi := rank[idx[0]], rank[idx[0]]
		for _, i := range idx {
			r, yi := rank[i], y[i]
			bn := &bins[r]
			bn.n++
			bn.sum += yi
			bn.sq += yi * yi
			lo, hi = min(lo, r), max(hi, r)
		}
		vals := b.vals[feat*b.n : (feat+1)*b.n]
		left := bins[lo]
		bins[lo] = rankBin{}
		prev := lo
		for r := lo + 1; r <= hi; r++ {
			bn := bins[r]
			if bn.n == 0 {
				continue
			}
			bins[r] = rankBin{}
			nl := float64(left.n)
			nr := n - nl
			sseL := left.sq - left.sum*left.sum/nl
			rightSum := totalSum - left.sum
			sseR := (totalSq - left.sq) - rightSum*rightSum/nr
			if gain := sse - (sseL + sseR); gain > bestGain {
				bestGain, bestFeat, bestThresh = gain, feat, splitAt(vals[prev], vals[r])
			}
			left.n += bn.n
			left.sum += bn.sum
			left.sq += bn.sq
			prev = r
		}
	}
	if bestFeat < 0 {
		return b.leaf(idx, mean)
	}
	// Stable in-place partition: the low side compacts forward, the high
	// side detours through scratch, so both keep their original relative
	// order, which the children's ordered float sums depend on.
	col := b.xc[bestFeat*b.n : (bestFeat+1)*b.n]
	b.part = b.part[:0]
	nlo := 0
	for _, i := range idx {
		if col[i] <= bestThresh {
			idx[nlo] = i
			nlo++
		} else {
			b.part = append(b.part, i)
		}
	}
	copy(idx[nlo:], b.part)
	nd := b.newNode(treeNode{feature: bestFeat, thresh: bestThresh})
	nd.lo = b.node(idx[:nlo], depth-1, rng)
	nd.hi = b.node(idx[nlo:], depth-1, rng)
	return nd
}

// splitAt is the threshold between adjacent distinct values a < b of a
// feature: their midpoint, or a when the midpoint rounds up to b (as it
// can for neighbouring floats), so that x <= threshold always sends a
// low and b high.
func splitAt(a, b float64) float64 {
	if m := (a + b) / 2; m < b {
		return m
	}
	return a
}

func (n *treeNode) eval(x []float64) float64 {
	for !n.terminal {
		if x[n.feature] <= n.thresh {
			n = n.lo
		} else {
			n = n.hi
		}
	}
	return n.value
}

// Predict implements Regressor.
func (f *Forest) Predict(x []float64) float64 {
	if len(f.trees) == 0 {
		return 0
	}
	var sum float64
	for _, t := range f.trees {
		sum += t.eval(x)
	}
	return sum / float64(len(f.trees))
}
