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
	"sync"

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

func checkShape(x [][]float64, y []float64) (int, error) {
	if len(x) == 0 || len(y) != len(x) {
		return 0, fmt.Errorf("%w: %d inputs, %d targets", ErrNoData, len(x), len(y))
	}
	w := len(x[0])
	for i, row := range x {
		if len(row) != w {
			return 0, fmt.Errorf("learn: ragged input at row %d", i)
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
// The split-search arithmetic is byte-for-byte the original per-node
// implementation (referenceBuildTree in the tests): ordered partial
// sums over the same index order, the same sort algorithm (sort.Slice
// and slices.SortFunc run the identical generated pdqsort, so equal
// keys land in the same order), the same RNG draws. The fitted trees
// are bit-identical; only where the work happens changed.
//
// A treeBuilder is owned by a single model and is not safe for
// concurrent Fits; Predict never touches it.
type treeBuilder struct {
	xc      []float64 // column-major copy of x: feature f of row i is xc[f*n+i]
	y       []float64
	n, w    int
	minLeaf int
	mtry    int

	idxBuf []int       // builder-owned copy of the root index set, partitioned in place
	pairs  []sortPair  // per-feature sort scratch
	order  []int32     // one feature's sorted rows when no memo is set
	ends   []int32     // one feature's run ends when no memo is set
	cum    []prefixSum // running sums at one feature's run ends
	part   []int       // hi side of the stable partition, copied out before recursing
	perm   []int       // feature-subset scratch
	leaves []leafSpan  // the last built tree's leaves, in build order

	// memo, when set, keeps every node's sorted orders for the trees
	// built on one root index set (see sortMemo). GBRT.Fit sets it for
	// the length of the Fit; Forest's bootstrap roots differ per tree,
	// so Forest sorts afresh at every node.
	memo *sortMemo

	// Node arena: fixed-size slabs, so node pointers stay valid as the
	// arena grows. Reset per begin — by then the previous Fit's trees
	// have been discarded by the caller (Fit overwrites the tree slice).
	chunks [][]treeNode
	ci, ni int
}

// prefixSum is the running Σy and Σy² of a node's rows, in one
// feature's sorted order, up to and including a run end.
type prefixSum struct{ sum, sq float64 }

// leafSpan is a leaf of the last built tree and the rows that reach it:
// its span of the partitioned idxBuf, which no later node touches.
type leafSpan struct {
	value float64
	rows  []int
}

// sortPair is one row's value of the feature being sorted; sorting the
// contiguous pairs gives the permutation the indirect index sort gives.
type sortPair struct {
	v   float64
	row int32
}

func cmpPair(a, b sortPair) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return 0
}

// memoKey names a node by its split path: the parent's memo node, the
// parent's split and the side taken. With one root index set and a
// stable partition, the same path always holds the same rows in the
// same order, so pdqsort (deterministic) gives the same permutation.
type memoKey struct {
	parent int32 // parent's index in sortMemo.nodes; 0 (the sentinel) for the root
	feat   int32
	thresh float64
	hi     bool
}

var rootKey = memoKey{}

// sortMemo stores each node's per-feature sorted rows and run ends
// once per GBRT fit: boosting rounds revisit the root every round and
// most other nodes many times, because the residuals change but the
// features do not. The nodes form a trie over split paths under a
// sentinel at nodes[0]. A node of m rows is one block at its offset in
// a flat arena: its sorted rows (m·w int32s, feature-major), then w+1
// offsets into the run ends that follow (feature f's are
// ends[bounds[f]:bounds[f+1]]). A feature has at most m−1 run ends,
// and at most its distinct value count − 1.
type sortMemo struct {
	nodes []memoNode
	arena []int32
}

type memoNode struct {
	key         memoKey
	off         int32 // the node's sorted rows in arena
	first, next int32 // first child, next sibling; -1 for none
}

// memoPool lends sort memos to GBRT fits, so no model holds one between
// fits and concurrent fits (parallel experiment cells) never share one.
// It is a free list rather than a sync.Pool: a sync.Pool empties at
// every GC, and the fresh memos that replace its items would make a
// run's allocation count depend on GC timing. It holds at most as many
// memos as fits ever ran at once.
var memoPool memoFreeList

type memoFreeList struct {
	mu   sync.Mutex
	free []*sortMemo
}

func (l *memoFreeList) get() *sortMemo {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(sortMemo)
	}
	m := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return m
}

func (l *memoFreeList) put(m *sortMemo) {
	l.mu.Lock()
	l.free = append(l.free, m)
	l.mu.Unlock()
}

// memoArenaRows sizes a memo's arena in units of n·w rows: a 60-round,
// depth-3 fit on the Interference Predictor's samples stores 20–47,
// run ends included (its integer features have few distinct values).
const memoArenaRows = 32

// reset empties the memo for a fit on n rows of w features whose trees
// sort at most nodes distinct nodes. Both slices are sized up front,
// with room for the sample count to double, so a memo grows rarely and
// a fresh one allocates a fixed three times.
func (m *sortMemo) reset(n, w, nodes int) {
	if cap(m.nodes) < nodes+1 {
		m.nodes = make([]memoNode, 0, nodes+1)
	}
	m.nodes = append(m.nodes[:0], memoNode{first: -1, next: -1})
	if size := memoArenaRows * n * w; cap(m.arena) < size {
		m.arena = make([]int32, 0, 2*size)
	}
	m.arena = m.arena[:0]
}

// find returns the node at key, or -1 if no fit round has sorted it.
func (m *sortMemo) find(key memoKey) int32 {
	for c := m.nodes[key.parent].first; c >= 0; c = m.nodes[c].next {
		if m.nodes[c].key == key {
			return c
		}
	}
	return -1
}

// add links a node at key whose rows start at arena offset off.
func (m *sortMemo) add(key memoKey, off int32) int32 {
	id := int32(len(m.nodes))
	m.nodes = append(m.nodes, memoNode{key: key, off: off, first: -1, next: m.nodes[key.parent].first})
	m.nodes[key.parent].first = id
	return id
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
// never mutated. While a memo is set, every build must get the same
// root index set (GBRT reuses one identity slice across rounds).
func (b *treeBuilder) build(idx []int, depth int, rng *xrand.Rand) *treeNode {
	n := len(idx)
	b.idxBuf = append(b.idxBuf[:0], idx...)
	if cap(b.pairs) < n {
		b.pairs = make([]sortPair, n)
		b.order = make([]int32, n)
		b.ends = make([]int32, 0, n)
		b.cum = make([]prefixSum, n)
	}
	if cap(b.part) < n {
		b.part = make([]int, 0, n)
	}
	b.leaves = b.leaves[:0]
	return b.node(b.idxBuf, rootKey, depth, rng)
}

// sortFeature writes the rows of idx into dst in ascending order of
// feature feat, and appends to ends every position j whose value
// differs from position j+1's: the run ends, the only split boundaries.
func (b *treeBuilder) sortFeature(dst, ends []int32, idx []int, feat int) []int32 {
	col := b.xc[feat*b.n : (feat+1)*b.n]
	pairs := b.pairs[:len(idx)]
	for k, i := range idx {
		pairs[k] = sortPair{v: col[i], row: int32(i)}
	}
	slices.SortFunc(pairs, cmpPair)
	for k, p := range pairs {
		dst[k] = p.row
		if k > 0 && pairs[k-1].v != p.v {
			ends = append(ends, int32(k-1))
		}
	}
	return ends
}

// memoOrders returns the node's memo index, its sorted rows for every
// feature (feature-major), its run-end offsets and its run ends,
// sorting on the node's first visit in this fit.
func (b *treeBuilder) memoOrders(key memoKey, idx []int) (id int32, sorted, bounds, ends []int32) {
	m, size := b.memo, len(idx)*b.w
	if id = m.find(key); id < 0 {
		off := len(m.arena)
		head := off + size + b.w + 1 // the node's run ends start here
		m.arena = slices.Grow(m.arena, size+b.w+1)[:head]
		m.arena[off+size] = 0
		for f := 0; f < b.w; f++ {
			// Room for the feature's run ends up front, so the append
			// in sortFeature never moves the orders it writes.
			m.arena = slices.Grow(m.arena, len(idx)-1)
			lo := off + f*len(idx)
			m.arena = b.sortFeature(m.arena[lo:lo+len(idx)], m.arena, idx, f)
			m.arena[off+size+f+1] = int32(len(m.arena) - head)
		}
		id = m.add(key, int32(off))
	}
	off := int(m.nodes[id].off)
	bounds = m.arena[off+size : off+size+b.w+1]
	ends = m.arena[off+size+b.w+1 : off+size+b.w+1+int(bounds[b.w])]
	return id, m.arena[off : off+size], bounds, ends
}

// leaf makes a terminal node for the rows of idx.
func (b *treeBuilder) leaf(idx []int, mean float64) *treeNode {
	b.leaves = append(b.leaves, leafSpan{value: mean, rows: idx})
	return b.newNode(treeNode{terminal: true, value: mean})
}

func (b *treeBuilder) node(idx []int, key memoKey, depth int, rng *xrand.Rand) *treeNode {
	y := b.y
	mean := 0.0
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))
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
	var self int32
	var sorted, bounds, memoEnds []int32
	if b.memo != nil {
		self, sorted, bounds, memoEnds = b.memoOrders(key, idx)
	}
	n := float64(len(idx))
	for _, feat := range features {
		// Sort the node's samples by the feature (or take the memo's
		// order), then scan every split boundary with running sums: the
		// best split minimizes
		//   SSE_left + SSE_right
		// where SSE = Σy² − (Σy)²/n per side — O(n log n) per feature
		// instead of the naive O(n²). The boundaries are the run ends,
		// where the sorted value changes.
		var order, ends []int32
		if sorted != nil {
			order = sorted[feat*len(idx) : (feat+1)*len(idx)]
			ends = memoEnds[bounds[feat]:bounds[feat+1]]
		} else {
			order = b.order[:len(idx)]
			ends = b.sortFeature(order, b.ends[:0], idx, feat)
		}
		if len(ends) == 0 {
			continue // constant at this node: no boundary to split on
		}
		// One pass adds every row's y in sorted order and keeps the
		// running sums at each run end; its final sums are the totals.
		cum := b.cum[:len(ends)]
		var sum, sq float64
		j := 0
		for k, e := range ends {
			for ; j <= int(e); j++ {
				yi := y[order[j]]
				sum += yi
				sq += yi * yi
			}
			cum[k] = prefixSum{sum, sq}
		}
		for ; j < len(order); j++ {
			yi := y[order[j]]
			sum += yi
			sq += yi * yi
		}
		totalSum, totalSq := sum, sq
		for k, e := range ends {
			leftSum, leftSq := cum[k].sum, cum[k].sq
			nl := float64(e + 1)
			nr := n - nl
			sseL := leftSq - leftSum*leftSum/nl
			rightSum := totalSum - leftSum
			sseR := (totalSq - leftSq) - rightSum*rightSum/nr
			if gain := sse - (sseL + sseR); gain > bestGain {
				col := b.xc[feat*b.n : (feat+1)*b.n]
				bestGain, bestFeat, bestThresh = gain, feat, (col[order[e]]+col[order[e+1]])/2
			}
		}
	}
	if bestFeat < 0 {
		return b.leaf(idx, mean)
	}
	// Stable in-place partition: the low side compacts forward, the high
	// side detours through scratch, so both keep their original relative
	// order — exactly the element order the old append-built loIdx/hiIdx
	// had, which the children's ordered float sums depend on.
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
	child := memoKey{parent: self, feat: int32(bestFeat), thresh: bestThresh}
	nd.lo = b.node(idx[:nlo], child, depth-1, rng)
	child.hi = true
	nd.hi = b.node(idx[nlo:], child, depth-1, rng)
	return nd
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
