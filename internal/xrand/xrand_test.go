package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	f1 := parent.Fork(1)
	f2 := parent.Fork(2)
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forks with different tags produced identical first values")
	}
	// Forking must not advance the parent.
	p1 := New(7)
	_ = p1.Fork(1)
	p2 := New(7)
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("Fork advanced parent state")
	}
}

func TestForkStringStable(t *testing.T) {
	a := New(3).ForkString("monitor")
	b := New(3).ForkString("monitor")
	if a.Uint64() != b.Uint64() {
		t.Fatal("ForkString not deterministic")
	}
	c := New(3).ForkString("tuner")
	d := New(3).ForkString("monitor")
	if c.Uint64() == d.Uint64() {
		t.Fatal("different labels produced identical streams")
	}
}

// TestDeriveSeedGolden pins the exact derived seeds and the first
// outputs of the resulting streams for a few (seed, cell) pairs. These
// values must never change: the parallel experiment engine's replay
// guarantee depends on DeriveSeed being stable across Go versions and
// refactors. If this test fails, the change broke deterministic replay.
func TestDeriveSeedGolden(t *testing.T) {
	golden := []struct {
		seed, cell uint64
		derived    uint64
		first      [4]uint64
	}{
		{seed: 42, cell: 0, derived: 0xbdd732262feb6e95, first: [4]uint64{0x57e1faba65107204, 0xf4abd143feb24055, 0x7c816738c12903b2, 0x113e5dec6f8fd8a8}},
		{seed: 42, cell: 1, derived: 0xd9639a006c85adb0, first: [4]uint64{0x304eb8ff7a2f5ddb, 0x3bc97287faa94f3f, 0x7f6f801c87e8ddd3, 0x53c42dfa806b4c17}},
		{seed: 42, cell: 7, derived: 0xb4346c5a4ac089c3, first: [4]uint64{0x704719dc4a3c9b04, 0x5f0d88e5b207c58a, 0x824f6d896fda35f8, 0xce8188134faaf6d8}},
		{seed: 1, cell: 0, derived: 0xe4d971771b652c20, first: [4]uint64{0x5dc20aa7b2a27137, 0xbda5668a01d7049c, 0x82b43276abb80226, 0xed4d5ed4a6ea59b4}},
		{seed: 123456789, cell: 255, derived: 0x1729e680280d3e7d, first: [4]uint64{0x42347e0324483843, 0x4bd8415e7515d945, 0x61737d7891675450, 0x39e20f9cdc90611a}},
	}
	for _, g := range golden {
		got := DeriveSeed(g.seed, g.cell)
		if got != g.derived {
			t.Errorf("DeriveSeed(%d, %d) = %#x, want %#x", g.seed, g.cell, got, g.derived)
			continue
		}
		r := New(got)
		for i, want := range g.first {
			if v := r.Uint64(); v != want {
				t.Errorf("New(DeriveSeed(%d, %d)) output %d = %#x, want %#x", g.seed, g.cell, i, v, want)
			}
		}
	}
}

// TestDeriveSeedStreamsDisjoint is the pairwise-independence property
// test: streams derived for distinct cell indices under the same base
// seed must not share any values in their first k outputs — if two
// cells landed on overlapping stream segments, parallel experiment
// cells would produce correlated noise.
func TestDeriveSeedStreamsDisjoint(t *testing.T) {
	const (
		cells = 64
		k     = 512
	)
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef} {
		seen := make(map[uint64][2]int, cells*k)
		for c := uint64(0); c < cells; c++ {
			r := New(DeriveSeed(seed, c))
			for i := 0; i < k; i++ {
				v := r.Uint64()
				if prev, dup := seen[v]; dup {
					t.Fatalf("seed %d: value %#x appears in cell %d (step %d) and cell %d (step %d)",
						seed, v, prev[0], prev[1], c, i)
				}
				seen[v] = [2]int{int(c), i}
			}
		}
	}
}

// TestDeriveSeedDistinct checks the derived seeds themselves collide
// neither across cell indices nor across nearby base seeds.
func TestDeriveSeedDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for seed := uint64(0); seed < 32; seed++ {
		for c := uint64(0); c < 256; c++ {
			d := DeriveSeed(seed, c)
			if seen[d] {
				t.Fatalf("derived seed collision at seed=%d cell=%d (%#x)", seed, c, d)
			}
			seen[d] = true
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(17)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) covered only %d values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(19)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(3, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("normal mean %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.2 {
		t.Fatalf("normal variance %v, want ~4", variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(23)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormal(0, 0.1)
	}
	// Median of LogNormal(0, s) is 1. Count below 1.
	below := 0
	for _, v := range vals {
		if v < 1 {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("lognormal median fraction %v, want ~0.5", frac)
	}
}

func TestExpMean(t *testing.T) {
	r := New(29)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(2) // mean 0.5
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("exp mean %v, want ~0.5", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(31)
	for _, mean := range []float64{0.5, 4, 30, 200} {
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Fatalf("poisson(%v) mean %v", mean, got)
		}
	}
}

func TestPoissonZeroMean(t *testing.T) {
	r := New(37)
	if v := r.Poisson(0); v != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", v)
	}
	if v := r.Poisson(-1); v != 0 {
		t.Fatalf("Poisson(-1) = %d, want 0", v)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64) bool {
		n := int(seed%20) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChoiceRespectsWeights(t *testing.T) {
	r := New(41)
	counts := [3]int{}
	const n = 60000
	for i := 0; i < n; i++ {
		counts[r.Choice([]float64{1, 2, 3})]++
	}
	for i, want := range []float64{1.0 / 6, 2.0 / 6, 3.0 / 6} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("weight %d frequency %v, want ~%v", i, got, want)
		}
	}
}

func TestChoicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Choice with zero weights did not panic")
		}
	}()
	New(1).Choice([]float64{0, 0})
}

func TestRangeBounds(t *testing.T) {
	r := New(43)
	for i := 0; i < 1000; i++ {
		v := r.Range(5, 9)
		if v < 5 || v >= 9 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}
