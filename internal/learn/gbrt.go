package learn

import "mudi/internal/xrand"

// GBRT is gradient-boosted regression trees: shallow trees fit
// sequentially to the residuals, shrunk by a learning rate. It joins
// the Interference Modeler's candidate zoo ("lightweight models such
// as random forest (RF), support vector regression (SVR), etc.").
type GBRT struct {
	Trees    int     // boosting rounds; default 60
	Depth    int     // per-tree depth; default 3
	LearnRte float64 // shrinkage; default 0.1
	Seed     uint64

	base     float64
	trees    []*treeNode
	tb       treeBuilder
	residual []float64 // fit scratch, reused across refits
	idx      []int     // identity root index set, reused across refits
}

// NewGBRT returns a gradient-boosted trees regressor.
func NewGBRT(trees int, seed uint64) *GBRT {
	return &GBRT{Trees: trees, Seed: seed}
}

// Name implements Regressor.
func (g *GBRT) Name() string { return "GBRT" }

// Fit implements Regressor.
func (g *GBRT) Fit(x [][]float64, y []float64) error {
	w, err := checkShape(x, y)
	if err != nil {
		return err
	}
	if g.Trees <= 0 {
		g.Trees = 60
	}
	if g.Depth <= 0 {
		g.Depth = 3
	}
	if g.LearnRte <= 0 {
		g.LearnRte = 0.1
	}
	n := len(x)
	g.base = 0
	for _, v := range y {
		g.base += v
	}
	g.base /= float64(n)

	residual := g.residual[:0]
	for _, v := range y {
		residual = append(residual, v-g.base)
	}
	idx := g.idx[:0]
	for i := 0; i < n; i++ {
		idx = append(idx, i)
	}
	g.residual, g.idx = residual, idx
	rng := xrand.New(g.Seed + 0x6b)
	g.trees = g.trees[:0]
	// Boosted trees use all features per split (mtry = w): the
	// sequential residual fitting provides the diversity. The rows'
	// value ranks depend only on x, so one begin serves every round.
	g.tb.begin(x, residual, 2, w)
	for round := 0; round < g.Trees; round++ {
		g.trees = append(g.trees, g.tb.build(idx, g.Depth, rng.Fork(uint64(round))))
		// The rows of a leaf's span are exactly those tree.eval sends
		// to it: the partition compared the same x[i][f] with the same
		// <=, so each residual gets the update tree.eval would give.
		for _, lf := range g.tb.leaves {
			for _, i := range lf.rows {
				residual[i] -= g.LearnRte * lf.value
			}
		}
	}
	return nil
}

func (g *GBRT) dropScratch() {
	g.tb.dropScratch()
	g.residual, g.idx = nil, nil
}

// Predict implements Regressor.
func (g *GBRT) Predict(x []float64) float64 {
	if g.trees == nil {
		return 0
	}
	sum := g.base
	for _, t := range g.trees {
		sum += g.LearnRte * t.eval(x)
	}
	return sum
}
