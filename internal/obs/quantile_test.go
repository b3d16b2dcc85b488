package obs

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"mudi/internal/stats"
	"mudi/internal/xrand"
)

// sortQuantile is the histogram's quantile before selection, kept as
// the oracle: sort a copy of the samples and interpolate between
// closest ranks.
func sortQuantile(samples []float64, p float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return stats.PercentileSorted(sorted, p)
}

// TestHistogramSelectionMatchesSortProperty: Stats and Quantile read by
// selection give the same bits as sorting, on random sample sets with
// heavy duplicates, ±0, a single sample and all-equal samples. One
// exception: when a set holds both -0 and +0 and the answer is zero,
// only the value must match. sort.Float64s treats the two zeros as
// equal keys and pdqsort is not stable, so the sign of a zero order
// statistic on the sort path depends on where the zeros sat in the
// input, not on the sample set; no other order can reproduce it.
func TestHistogramSelectionMatchesSortProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(300)
		if rng.Intn(8) == 0 {
			n = 1
		}
		shape := rng.Intn(4)
		xs := make([]float64, n)
		for i := range xs {
			switch shape {
			case 0:
				xs[i] = rng.Range(0, 500)
			case 1:
				xs[i] = float64(rng.Intn(5)) // heavy duplicates
			case 2:
				xs[i] = 7.25 // all equal
			default:
				xs[i] = []float64{math.Copysign(0, -1), 0, 1, 2.5}[rng.Intn(4)]
			}
		}
		h := NewHistogram(nil)
		var negZero, posZero bool
		for _, x := range xs {
			h.Observe(x)
			negZero = negZero || x == 0 && math.Signbit(x)
			posZero = posZero || x == 0 && !math.Signbit(x)
		}
		same := func(got, want float64) bool {
			if negZero && posZero && got == 0 && want == 0 {
				return true
			}
			return math.Float64bits(got) == math.Float64bits(want)
		}
		s := h.Stats()
		if !same(s.P50, sortQuantile(xs, 50)) || !same(s.P95, sortQuantile(xs, 95)) || !same(s.P99, sortQuantile(xs, 99)) {
			t.Logf("seed %d: Stats P50/P95/P99 %v/%v/%v, sort gives %v/%v/%v", seed,
				s.P50, s.P95, s.P99, sortQuantile(xs, 50), sortQuantile(xs, 95), sortQuantile(xs, 99))
			return false
		}
		for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1, rng.Range(0, 1)} {
			if got, want := h.Quantile(q), sortQuantile(xs, q*100); !same(got, want) {
				t.Logf("seed %d: Quantile(%v) = %v, sort gives %v", seed, q, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
