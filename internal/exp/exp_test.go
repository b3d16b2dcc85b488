package exp

import (
	"flag"
	"strconv"
	"strings"
	"testing"
)

// -seed runs the shape tests at another seed (see make shape-seeds);
// the goldens are pinned at seed 1 and are not compared at others.
var seed = flag.Uint64("seed", 1, "seed of smallCfg")

func smallCfg() Config { return Config{Seed: *seed, Scale: ScaleSmall} }

func newSmallSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func parseFloat(t *testing.T, cell string) float64 {
	t.Helper()
	cell = strings.TrimSuffix(strings.TrimSuffix(cell, "%"), "x")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

func TestTable2(t *testing.T) {
	tab, err := Table2(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows %d, want 5", len(tab.Rows))
	}
	// Shape: piecewise ≤ polynomial from 6 samples on.
	for _, row := range tab.Rows[1:] {
		poly := parseFloat(t, row[1])
		pw := parseFloat(t, row[3])
		if pw > poly {
			t.Fatalf("samples=%s: piecewise %v above poly %v", row[0], pw, poly)
		}
	}
}

func TestFig3Fig4Shapes(t *testing.T) {
	t3, err := Fig3(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	t4, err := Fig4(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, t3, "fig3_small.golden")
	checkGolden(t, t4, "fig4_small.golden")
	meanOf := func(tab *t3Type, victim string) float64 {
		var sum float64
		var n int
		for _, row := range tab.Rows {
			if row[0] == victim {
				sum += parseFloat(t, row[2])
				n++
			}
		}
		return sum / float64(n)
	}
	for _, victim := range []string{"GPT2", "ResNet50"} {
		infF := meanOf(t3, victim)
		trainF := meanOf(t4, victim)
		if trainF >= infF {
			t.Fatalf("%s: training coloc (%v) should interfere less than inference coloc (%v)", victim, trainF, infF)
		}
		if trainF < 1 {
			t.Fatalf("%s: interference factor %v below 1", victim, trainF)
		}
	}
}

// t3Type aliases the report table to keep meanOf readable.
type t3Type = tableAlias

func TestFig5MonotoneAndKnee(t *testing.T) {
	tab, err := Fig5(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("rows %d, want 9 grid points", len(tab.Rows))
	}
	// Latency decreases down each column (more GPU → faster), and the
	// co-located column dominates the solo one.
	for col := 1; col <= 6; col++ {
		prev := parseFloat(t, tab.Rows[0][col])
		for _, row := range tab.Rows[1:] {
			cur := parseFloat(t, row[col])
			if cur > prev+1e-9 {
				t.Fatalf("column %d not non-increasing: %v then %v", col, prev, cur)
			}
			prev = cur
		}
	}
	for i := range tab.Rows {
		solo := parseFloat(t, tab.Rows[i][2])
		coloc := parseFloat(t, tab.Rows[i][5])
		if coloc <= solo {
			t.Fatalf("row %d: co-located latency %v not above solo %v", i, coloc, solo)
		}
	}
}

func TestEndToEndFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end suite is slow")
	}
	s := newSmallSuite(t)
	f8, err := Fig8(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Rows) < 4 {
		t.Fatalf("Fig8 rows %d", len(f8.Rows))
	}
	// At small scale the table includes the exhaustive Optimal
	// baseline; the golden pins every system's row bit for bit.
	checkGolden(t, f8, "fig8_small.golden")
	// Mudi's mean violation must be the lowest across systems.
	meanRow := func(row []string) float64 {
		var sum float64
		for _, cell := range row[1:] {
			sum += parseFloat(t, cell)
		}
		return sum / float64(len(row)-1)
	}
	var mudi float64
	for _, row := range f8.Rows {
		if row[0] == "mudi" {
			mudi = meanRow(row)
		}
	}
	for _, row := range f8.Rows {
		if row[0] == "mudi" || row[0] == "optimal" {
			continue
		}
		// 0.2pp absolute noise floor at nominal load (all systems near
		// zero here; the sweep in Fig. 15 separates them).
		if mudi > meanRow(row)+0.2 {
			t.Fatalf("mudi violation %v above %s %v", mudi, row[0], meanRow(row))
		}
	}

	f9, err := Fig9(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f9.Rows) < 4 {
		t.Fatalf("Fig9 rows %d", len(f9.Rows))
	}
	f10, err := Fig10(s)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 10's full +42% claim needs sustained load (baselines pause
	// training under pressure); at this scale assert Mudi is at least
	// competitive: within 25% of the best and above the worst baseline.
	var mudiSM float64
	var baseSMs []float64
	for _, row := range f10.Rows {
		if row[0] == "mudi" {
			mudiSM = parseFloat(t, row[1])
		} else if row[0] != "optimal" {
			baseSMs = append(baseSMs, parseFloat(t, row[1]))
		}
	}
	worst, best := baseSMs[0], baseSMs[0]
	for _, v := range baseSMs[1:] {
		if v < worst {
			worst = v
		}
		if v > best {
			best = v
		}
	}
	if mudiSM < worst*0.90 {
		t.Fatalf("mudi SM util %v far below the worst baseline %v", mudiSM, worst)
	}
	if mudiSM < best*0.75 {
		t.Fatalf("mudi SM util %v not within 25%% of best baseline %v", mudiSM, best)
	}

	f18, err := Fig18(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f18.Rows {
		if row[0] == "GP-LCB iterations" {
			if maxIters := parseFloat(t, row[3]); maxIters > 25 {
				t.Fatalf("BO exceeded 25 iterations: %v", maxIters)
			}
		}
	}
}

func TestFig11(t *testing.T) {
	tab, err := Fig11(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows %d, want 6 services", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// Slope targets (k1, k2) are noisier in our testbed because the
		// shallow segment is nearly flat relative to measurement noise;
		// knee position and latency (the decision-driving parameters)
		// must stay tight.
		for col, bound := range map[int]float64{1: 1.5, 2: 2.5, 3: 0.4, 4: 0.5} {
			e := parseFloat(t, row[col])
			if e < 0 || e > bound {
				t.Fatalf("%s error col %d out of range: %v (bound %v)", row[0], col, e, bound)
			}
		}
		if !strings.Contains(row[5], "/") {
			t.Fatalf("model labels missing: %q", row[5])
		}
	}
}

func TestFig12ErrorsDecline(t *testing.T) {
	tab, err := Fig12(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	for col := 1; col < len(first); col++ {
		if parseFloat(t, last[col]) > parseFloat(t, first[col]) {
			t.Fatalf("column %d error grew: %s → %s", col, first[col], last[col])
		}
	}
}

func TestFig16Trace(t *testing.T) {
	tab, err := Fig16(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 10 {
		t.Fatalf("trace rows %d", len(tab.Rows))
	}
	// The burst must be visible: QPS during [100,200) well above before.
	var pre, burst float64
	var nPre, nBurst int
	for _, row := range tab.Rows {
		ts := parseFloat(t, row[0])
		q := parseFloat(t, row[1])
		switch {
		case ts < 100:
			pre += q
			nPre++
		case ts < 200:
			burst += q
			nBurst++
		}
	}
	if nPre == 0 || nBurst == 0 {
		t.Fatal("trace does not span the burst")
	}
	if burst/float64(nBurst) < 1.8*pre/float64(nPre) {
		t.Fatalf("burst not visible: pre %v vs burst %v", pre/float64(nPre), burst/float64(nBurst))
	}
}

func TestTab4Swapping(t *testing.T) {
	tab, err := Tab4(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	any := false
	for _, cell := range tab.Rows[0] {
		if parseFloat(t, cell) > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("no service ever swapped under bursty load")
	}
}

func TestOptimality(t *testing.T) {
	tab, err := Optimality(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tab, "optimality_small.golden")
	match := parseFloat(t, tab.Rows[0][1])
	if match < 50 {
		t.Fatalf("optimal-match rate %v%% too low (paper: 92.67%%)", match)
	}
	if len(tab.Rows) >= 2 {
		if ratio := parseFloat(t, tab.Rows[1][1]); ratio > 1.3 {
			t.Fatalf("mean iteration ratio %v too far above optimal (paper: ≤1.10)", ratio)
		}
	}
}

func TestFig13Ablations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation suite is slow")
	}
	s := newSmallSuite(t)
	tab, err := Fig13(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	checkGolden(t, tab, "fig13_small.golden")
	full := parseFloat(t, tab.Rows[0][1])
	clusterOnly := parseFloat(t, tab.Rows[1][1])
	// Allow 0.2pp noise: at small scale both sit near zero. The
	// physical-scale run (EXPERIMENTS.md) shows the 2.5x separation.
	if clusterOnly < full-0.2 {
		t.Fatalf("cluster-only violation %v below full Mudi %v", clusterOnly, full)
	}
}

func TestFig15Sweep(t *testing.T) {
	if testing.Short() {
		t.Skip("load sweep is slow")
	}
	s := newSmallSuite(t)
	tab, err := Fig15(s)
	if err != nil {
		t.Fatal(err)
	}
	at := map[string]map[string]float64{}
	for _, row := range tab.Rows {
		if at[row[0]] == nil {
			at[row[0]] = map[string]float64{}
		}
		at[row[0]][row[1]] = parseFloat(t, row[2])
	}
	// Mudi's violation grows with load (a baseline may non-monotonically
	// improve by pausing all training, which also removes its own
	// interference — see EXPERIMENTS.md).
	if at["mudi"]["3x"] < at["mudi"]["1x"] {
		t.Fatalf("mudi violation fell with load: %v → %v", at["mudi"]["1x"], at["mudi"]["3x"])
	}
	// Mudi stays lowest at every load level.
	for name, loads := range at {
		if name == "mudi" {
			continue
		}
		for _, l := range []string{"1x", "2x", "3x"} {
			// Allow 40% relative plus 0.5pp absolute slack: at 1x all
			// systems sit near zero, and at heavy saturation every
			// repair-capable system converges toward the same physical
			// ceiling (see EXPERIMENTS.md).
			if at["mudi"][l] > loads[l]*1.4+0.5 {
				t.Fatalf("mudi %s violation %v above %s's %v", l, at["mudi"][l], name, loads[l])
			}
		}
	}
}

func TestFig17MudiMore(t *testing.T) {
	if testing.Short() {
		t.Skip("mudi-more suite is slow")
	}
	tab, err := Fig17(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	more := parseFloat(t, tab.Rows[1][1])
	random := parseFloat(t, tab.Rows[2][1])
	if more > random {
		t.Fatalf("mudi-more violation %v above random %v", more, random)
	}
}

func TestFig14Throughput(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput bisection is slow")
	}
	s := newSmallSuite(t)
	tab, err := Fig14(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 4 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// Mudi's sustainable throughput ≥ every baseline's on a majority of
	// services (the Fig. 14 claim, allowing small-scale noise).
	byName := map[string][]float64{}
	for _, row := range tab.Rows {
		var vals []float64
		for _, cell := range row[1:] {
			vals = append(vals, parseFloat(t, cell))
		}
		byName[row[0]] = vals
	}
	mudi := byName["mudi"]
	for name, vals := range byName {
		if name == "mudi" {
			continue
		}
		wins := 0
		for i := range vals {
			if mudi[i] >= vals[i] {
				wins++
			}
		}
		if wins*2 < len(vals) {
			t.Fatalf("mudi beats %s on only %d/%d services", name, wins, len(vals))
		}
	}
}

func TestAblationTuner(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation run is slow")
	}
	tab, err := AblationTuner(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tab, "ablation_tuner_small.golden")
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	boCT := parseFloat(t, tab.Rows[0][2])
	fixedCT := parseFloat(t, tab.Rows[1][2])
	exCT := parseFloat(t, tab.Rows[2][2])
	// GP-LCB must match exhaustive quality and not lose badly to the
	// fixed batch (usually it wins; the small scale adds noise).
	if boCT > exCT*1.25 {
		t.Fatalf("GP-LCB CT %v too far above exhaustive %v", boCT, exCT)
	}
	if boCT > fixedCT*1.25 {
		t.Fatalf("GP-LCB CT %v too far above fixed-batch %v", boCT, fixedCT)
	}
	// BO stays within the paper's 25-iteration budget.
	if evals := parseFloat(t, tab.Rows[0][4]); evals > 25 {
		t.Fatalf("GP-LCB evals %v exceed 25", evals)
	}
}

func TestQueuePolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("queue sweep is slow")
	}
	tab, err := QueuePolicies(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	waits := map[string]float64{}
	for _, row := range tab.Rows {
		waits[row[0]] = parseFloat(t, row[1])
	}
	// SJF must not worsen mean waiting vs FCFS (its whole point).
	if waits["sjf"] > waits["fcfs"]*1.05+1 {
		t.Fatalf("SJF wait %v above FCFS %v", waits["sjf"], waits["fcfs"])
	}
}

func TestFidelity(t *testing.T) {
	tab, err := Fidelity(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		window := parseFloat(t, row[1])
		reqLevel := parseFloat(t, row[2])
		// Request-level latency includes batch-assembly wait: it must
		// dominate the window model's pure processing latency.
		if reqLevel < window {
			t.Fatalf("batch %s: request-level %v below window model %v", row[0], reqLevel, window)
		}
	}
}

func TestBackground(t *testing.T) {
	tab, err := Background(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 4 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
}
