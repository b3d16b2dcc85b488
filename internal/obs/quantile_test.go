package obs

import (
	"math"
	"reflect"
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

// TestHistogramSelectionMatchesSortProperty: Stats' count, sum,
// extremes and buckets match in-order running totals, and its
// percentiles read by selection give the same bits as sorting, on
// random sample sets with heavy duplicates, ±0, a single sample and
// all-equal samples. One
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
		h := &Histogram{}
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
		// Count, sum, extremes and buckets match running totals kept
		// in observation order, as an Observe-time accumulator would.
		var sum float64
		lo, hi := math.Inf(1), math.Inf(-1)
		counts := make([]uint64, len(DefLatencyBuckets)+1)
		for _, x := range xs {
			sum += x
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
			counts[sort.SearchFloat64s(DefLatencyBuckets, x)]++
		}
		if s.Count != uint64(n) || math.Float64bits(s.Sum) != math.Float64bits(sum) || s.Min != lo || s.Max != hi {
			t.Logf("seed %d: count/sum/min/max %d/%v/%v/%v, want %d/%v/%v/%v", seed, s.Count, s.Sum, s.Min, s.Max, n, sum, lo, hi)
			return false
		}
		var cum uint64
		for i, b := range s.Buckets {
			cum += counts[i]
			if b.Le != DefLatencyBuckets[i] || b.Count != cum {
				t.Logf("seed %d: bucket %d = %+v, want le %v count %d", seed, i, b, DefLatencyBuckets[i], cum)
				return false
			}
		}
		if !same(s.P50, sortQuantile(xs, 50)) || !same(s.P95, sortQuantile(xs, 95)) || !same(s.P99, sortQuantile(xs, 99)) {
			t.Logf("seed %d: Stats P50/P95/P99 %v/%v/%v, sort gives %v/%v/%v", seed,
				s.P50, s.P95, s.P99, sortQuantile(xs, 50), sortQuantile(xs, 95), sortQuantile(xs, 99))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// flatStats is Stats' reference over one flat slice: in-order running
// sum and extremes, cumulative bucket counts, and each percentile from
// the copy-and-sort stats.Percentile.
func flatStats(xs []float64) HistogramStats {
	s := HistogramStats{Count: uint64(len(xs))}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		s.Sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = s.Sum / float64(len(xs))
	s.P50, s.P95, s.P99 = stats.Percentile(xs, 50), stats.Percentile(xs, 95), stats.Percentile(xs, 99)
	for _, b := range DefLatencyBuckets {
		var n uint64
		for _, x := range xs {
			if x <= b {
				n++
			}
		}
		s.Buckets = append(s.Buckets, BucketCount{Le: b, Count: n})
	}
	return s
}

// TestHistogramChunkBoundaries: at sample counts on and around the
// storage's chunk boundaries, a sink histogram fed in windows through
// ObserveAll and a standalone one fed by Observe both report exactly
// the flat-slice reference, field by field.
func TestHistogramChunkBoundaries(t *testing.T) {
	rng := xrand.New(11)
	for _, n := range []int{0, 1, histChunk - 1, histChunk, histChunk + 1, 3*histChunk + 7} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Range(0, 6000)
		}
		sink := NewSink()
		batched := sink.Histogram("lat_ms")
		for lo := 0; lo < n; lo += 37 {
			var es []Entry
			for _, x := range xs[lo:min(lo+37, n)] {
				es = append(es, Entry{Histogram: batched, Value: x})
			}
			sink.ObserveAll(es)
		}
		single := &Histogram{}
		for _, x := range xs {
			single.Observe(x)
		}
		want := flatStats(xs)
		for name, got := range map[string]HistogramStats{
			"ObserveAll": batched.Stats(), "Observe": single.Stats(), "Snapshot": sink.Snapshot().Histograms["lat_ms"],
		} {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d %s: stats %+v, want %+v", n, name, got, want)
			}
		}
	}
}
