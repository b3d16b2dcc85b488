package stats

import (
	"sort"
	"testing"

	"mudi/internal/xrand"
)

// TestScratchPercentileMatchesSort is the selection-vs-sort property
// test: for random inputs and percentiles, Scratch.Percentile must be
// bit-identical to the copy-and-sort Percentile (quickselect yields the
// same order statistics; the interpolation arithmetic is shared).
func TestScratchPercentileMatchesSort(t *testing.T) {
	rng := xrand.New(0x5ca1ab1e)
	var sc Scratch
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		xs := make([]float64, n)
		for i := range xs {
			// Heavy ties in half of the trials to exercise equal keys.
			if trial%2 == 0 {
				xs[i] = float64(rng.Intn(7))
			} else {
				xs[i] = rng.Range(-1e3, 1e3)
			}
		}
		ps := []float64{0, 1, 25, 50, 90, 99, 99.9, 100, rng.Range(0, 100)}
		for _, p := range ps {
			got := sc.Percentile(xs, p)
			want := Percentile(xs, p)
			if got != want {
				t.Fatalf("trial %d n=%d p=%v: scratch %v != sort %v", trial, n, p, got, want)
			}
		}
	}
}

// TestScratchPercentilesMatchPercentile: one multi-percentile read of
// the buffer equals a separate Percentile call per percentile, for
// every n from 1 to 300 on spread and duplicate-heavy inputs, for
// ascending, unordered and edge percentiles, and at n = 2, where P50,
// P95 and P99 all share floor rank 0.
func TestScratchPercentilesMatchPercentile(t *testing.T) {
	rng := xrand.New(0xb0a710ad)
	var sc Scratch
	check := func(xs, ps []float64) {
		t.Helper()
		copy(sc.Buffer(len(xs)), xs)
		got := make([]float64, len(ps))
		sc.Percentiles(ps, got)
		for i, p := range ps {
			if want := Percentile(xs, p); got[i] != want {
				t.Fatalf("n=%d ps=%v: P%v = %v, Percentile gives %v", len(xs), ps, p, got[i], want)
			}
		}
	}
	for n := 1; n <= 300; n++ {
		for _, dup := range []bool{false, true} {
			xs := make([]float64, n)
			for i := range xs {
				if dup {
					xs[i] = float64(rng.Intn(4))
				} else {
					xs[i] = rng.Range(0, 500)
				}
			}
			check(xs, []float64{50, 95, 99})
			check(xs, []float64{0, 25, 25, 75, 99.9, 100})
			check(xs, []float64{99, 50, 95, 1, rng.Range(0, 100)})
		}
	}
	check([]float64{7, 3}, []float64{50, 95, 99})
	check([]float64{3, 3}, []float64{50, 95, 99})
	sc.Buffer(0)
	out := []float64{-1}
	if sc.Percentiles([]float64{50}, out); out[0] != 0 {
		t.Fatalf("empty buffer P50 = %v, want 0", out[0])
	}
}

func TestScratchPercentileDoesNotModifyInput(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	orig := append([]float64(nil), xs...)
	var sc Scratch
	sc.Percentile(xs, 90)
	for i := range xs {
		if xs[i] != orig[i] {
			t.Fatalf("input modified at %d: %v != %v", i, xs[i], orig[i])
		}
	}
}

func TestScratchEmpty(t *testing.T) {
	var sc Scratch
	if v := sc.P99(nil); v != 0 {
		t.Fatalf("P99(nil) = %v, want 0", v)
	}
}

func TestPercentileSorted(t *testing.T) {
	xs := []float64{9, 3, 7, 1, 5}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{0, 10, 50, 90, 99, 100} {
		if got, want := PercentileSorted(sorted, p), Percentile(xs, p); got != want {
			t.Fatalf("p=%v: PercentileSorted %v != Percentile %v", p, got, want)
		}
	}
	if v := PercentileSorted(nil, 50); v != 0 {
		t.Fatalf("PercentileSorted(nil) = %v, want 0", v)
	}
}

// TestScratchP99ZeroAllocs pins the alloc budget: once the scratch
// buffer has grown to the largest input seen, P99 allocates nothing.
func TestScratchP99ZeroAllocs(t *testing.T) {
	rng := xrand.New(7)
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	var sc Scratch
	sc.P99(xs) // grow the buffer
	if n := testing.AllocsPerRun(100, func() { sc.P99(xs) }); n != 0 {
		t.Fatalf("warm scratch P99 allocates %v per run, want 0", n)
	}
	// Smaller inputs reuse the same buffer.
	if n := testing.AllocsPerRun(100, func() { sc.P99(xs[:100]) }); n != 0 {
		t.Fatalf("scratch P99 on smaller input allocates %v per run, want 0", n)
	}
}
