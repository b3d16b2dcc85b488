package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Sum(nil) != 0 {
		t.Fatal("empty aggregate not zero")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile not zero")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max not infinite")
	}
}

func TestPercentileExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Fatalf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{10, 20}
	if got := Percentile(xs, 50); got != 15 {
		t.Fatalf("P50 = %v, want 15", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated input")
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []float64, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		p := float64(pRaw) / 255 * 100
		got := Percentile(raw, p)
		lo, hi := Min(raw), Max(raw)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(raw, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSeriesAverage(t *testing.T) {
	s := NewTimeSeries()
	for _, p := range []struct{ t, v float64 }{{0, 1}, {10, 3}, {20, 5}} {
		if err := s.Add(p.t, p.v); err != nil {
			t.Fatal(err)
		}
	}
	// Over [0,30]: 1 for 10s, 3 for 10s, 5 for 10s => mean 3.
	if got := s.TimeAverage(0, 30); !almost(got, 3, 1e-9) {
		t.Fatalf("TimeAverage = %v, want 3", got)
	}
	// Over [5,15]: 1 for 5s, 3 for 5s => 2.
	if got := s.TimeAverage(5, 15); !almost(got, 2, 1e-9) {
		t.Fatalf("TimeAverage(5,15) = %v, want 2", got)
	}
}

func TestTimeSeriesRejectsBackwardsTime(t *testing.T) {
	s := NewTimeSeries()
	if err := s.Add(5, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(4, 1); err == nil {
		t.Fatal("expected error for backwards time")
	}
}

func TestTimeSeriesDownsample(t *testing.T) {
	s := NewTimeSeries()
	s.Add(0, 2)
	s.Add(10, 4)
	times, values := s.Downsample(0, 20, 4)
	if len(times) != 4 || len(values) != 4 {
		t.Fatalf("downsample lengths %d/%d", len(times), len(values))
	}
	if values[0] != 2 || values[3] != 4 {
		t.Fatalf("downsample values %v", values)
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	s := NewTimeSeries()
	if s.TimeAverage(0, 10) != 0 {
		t.Fatal("empty series average should be 0")
	}
	ts, vs := s.Downsample(0, 10, 3)
	for i := range ts {
		if vs[i] != 0 {
			t.Fatal("empty series downsample should be 0")
		}
	}
}

func TestMAPE(t *testing.T) {
	pred := []float64{110, 90}
	truth := []float64{100, 100}
	if got := MAPE(pred, truth); !almost(got, 0.1, 1e-9) {
		t.Fatalf("MAPE = %v, want 0.1", got)
	}
	// Zero truth entries are skipped.
	if got := MAPE([]float64{1, 5}, []float64{0, 5}); got != 0 {
		t.Fatalf("MAPE with zero truth = %v, want 0", got)
	}
}

func TestRMSE(t *testing.T) {
	if got := RMSE([]float64{1, 2}, []float64{1, 4}); !almost(got, math.Sqrt(2), 1e-12) {
		t.Fatalf("RMSE = %v", got)
	}
	if RMSE(nil, nil) != 0 {
		t.Fatal("empty RMSE should be 0")
	}
}

func TestMAPEMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MAPE length mismatch did not panic")
		}
	}()
	MAPE([]float64{1}, []float64{1, 2})
}

func TestP99(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	sort.Float64s(xs)
	if got := P99(xs); !almost(got, 99.01, 0.05) {
		t.Fatalf("P99 = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{-1, 0, 1.9, 2, 5, 9.99, 10, 42} {
		h.Add(v)
	}
	if h.N() != 8 {
		t.Fatalf("N = %d", h.N())
	}
	under, over := h.Outliers()
	if under != 1 || over != 2 {
		t.Fatalf("outliers %d/%d, want 1/2", under, over)
	}
	// Bin 0 covers [0,2): samples 0 and 1.9.
	if c, lo, hi := h.Bin(0); c != 2 || lo != 0 || hi != 2 {
		t.Fatalf("bin0 = %d [%v,%v)", c, lo, hi)
	}
	// Bin 1 covers [2,4): sample 2.
	if c, _, _ := h.Bin(1); c != 1 {
		t.Fatalf("bin1 = %d", c)
	}
	// Bin 4 covers [8,10): sample 9.99.
	if c, _, _ := h.Bin(4); c != 1 {
		t.Fatalf("bin4 = %d", c)
	}
	fr := h.Fractions()
	if len(fr) != 5 || math.Abs(fr[0]-0.25) > 1e-9 {
		t.Fatalf("fractions %v", fr)
	}
	if h.Bins() != 5 {
		t.Fatalf("bins %d", h.Bins())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	for _, f := range h.Fractions() {
		if f != 0 {
			t.Fatal("empty fractions nonzero")
		}
	}
}

func TestHistogramPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad range accepted")
		}
	}()
	NewHistogram(5, 5, 3)
}
