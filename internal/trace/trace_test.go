package trace

import (
	"math"
	"testing"

	"mudi/internal/model"
	"mudi/internal/stats"
	"mudi/internal/xrand"
)

func TestConstantQPS(t *testing.T) {
	q := ConstantQPS(200)
	if q.At(0) != 200 || q.At(1e6) != 200 {
		t.Fatal("constant trace not constant")
	}
}

func TestFluctuatingStaysInBand(t *testing.T) {
	q := NewFluctuatingQPS(200, xrand.New(1))
	for ts := 0.0; ts < 5000; ts += 7 {
		v := q.At(ts)
		if v < 100 || v > 320 {
			t.Fatalf("QPS %v at t=%v outside the ±40%%-ish band", v, ts)
		}
	}
}

func TestFluctuatingActuallyFluctuates(t *testing.T) {
	q := NewFluctuatingQPS(200, xrand.New(2))
	var vals []float64
	for ts := 0.0; ts < 3000; ts += 10 {
		vals = append(vals, q.At(ts))
	}
	if stats.StdDev(vals) < 5 {
		t.Fatalf("trace too flat: stddev %v", stats.StdDev(vals))
	}
}

func TestFluctuatingDeterministicAndRandomAccess(t *testing.T) {
	q1 := NewFluctuatingQPS(200, xrand.New(3))
	q2 := NewFluctuatingQPS(200, xrand.New(3))
	// Access q1 forward, q2 at a far point first, then compare.
	for ts := 0.0; ts < 1000; ts += 10 {
		q1.At(ts)
	}
	_ = q2.At(990)
	if q1.At(500) != q2.At(500) {
		t.Fatal("trace depends on access order")
	}
	if q1.At(-5) != q1.At(0) {
		t.Fatal("negative time should clamp to 0")
	}
}

func TestBurstyQPS(t *testing.T) {
	q := NewBurstyQPS(ConstantQPS(100), NewBurstSchedule([]Burst{{Start: 100, End: 200, Factor: 3}}))
	if q.At(50) != 100 {
		t.Fatal("pre-burst rate wrong")
	}
	if q.At(150) != 300 {
		t.Fatal("burst rate wrong")
	}
	if q.At(200) != 100 {
		t.Fatal("burst end must be exclusive")
	}
}

// TestScaledQPS: a load factor is one burst episode over [0, +Inf).
func TestScaledQPS(t *testing.T) {
	q := NewBurstyQPS(ConstantQPS(100), NewBurstSchedule([]Burst{{Start: 0, End: math.Inf(1), Factor: 4}}))
	if q.At(0) != 400 {
		t.Fatal("scaled rate wrong")
	}
}

func TestPoissonArrivalsRate(t *testing.T) {
	rng := xrand.New(4)
	// 200 req/s for 50 s ⇒ ~10000 arrivals.
	arr := PoissonArrivals(ConstantQPS(200), 50, rng)
	if math.Abs(float64(len(arr))-10000) > 400 {
		t.Fatalf("arrival count %d, want ≈10000", len(arr))
	}
	// Sorted and in range.
	for i, ts := range arr {
		if ts < 0 || ts >= 50 {
			t.Fatalf("arrival %v out of range", ts)
		}
		if i > 0 && ts < arr[i-1] {
			t.Fatal("arrivals not sorted")
		}
	}
}

func TestPoissonArrivalsThinning(t *testing.T) {
	rng := xrand.New(5)
	q := NewBurstyQPS(ConstantQPS(100), NewBurstSchedule([]Burst{{Start: 0, End: 10, Factor: 5}}))
	arr := PoissonArrivals(q, 20, rng)
	var burst, rest int
	for _, ts := range arr {
		if ts < 10 {
			burst++
		} else {
			rest++
		}
	}
	ratio := float64(burst) / float64(rest)
	if math.Abs(ratio-5) > 1 {
		t.Fatalf("burst/rest arrival ratio %v, want ≈5", ratio)
	}
}

func TestPoissonArrivalsDegenerate(t *testing.T) {
	rng := xrand.New(6)
	if got := PoissonArrivals(ConstantQPS(100), 0, rng); got != nil {
		t.Fatal("zero duration should be empty")
	}
	if got := PoissonArrivals(ConstantQPS(0), 10, rng); got != nil {
		t.Fatal("zero rate should be empty")
	}
}

func TestPhillyTraceBasics(t *testing.T) {
	arr, err := PhillyTrace(PhillyConfig{Count: 2000, MeanGapSec: 20, ScaleIters: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != 2000 {
		t.Fatalf("count %d", len(arr))
	}
	prev := -1.0
	for _, a := range arr {
		if a.At < prev {
			t.Fatal("arrivals not monotone")
		}
		prev = a.At
		if a.Iters < 1 || a.GPUsReq != 1 {
			t.Fatalf("bad arrival %+v", a)
		}
		if a.Task.Name == "" {
			t.Fatal("missing task")
		}
	}
	// IDs are sequential.
	if arr[0].ID != 0 || arr[1999].ID != 1999 {
		t.Fatal("IDs not sequential")
	}
}

func TestPhillyTraceMixMatchesFractions(t *testing.T) {
	arr, err := PhillyTrace(PhillyConfig{Count: 20000, MeanGapSec: 5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, a := range arr {
		counts[a.Task.Name]++
	}
	var fracSum float64
	for _, task := range model.Tasks() {
		fracSum += task.Frac
	}
	for _, task := range model.Tasks() {
		want := task.Frac / fracSum
		got := float64(counts[task.Name]) / float64(len(arr))
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("%s frequency %v, want ≈%v", task.Name, got, want)
		}
	}
}

func TestPhillyTraceDiurnal(t *testing.T) {
	arr, err := PhillyTrace(PhillyConfig{Count: 30000, MeanGapSec: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var day, night int
	for _, a := range arr {
		hour := math.Mod(a.At, 86400) / 3600
		if hour >= 9 && hour < 21 {
			day++
		} else {
			night++
		}
	}
	// Daytime submits ~3× more per hour; both windows are 12 h.
	ratio := float64(day) / float64(night)
	if ratio < 1.5 {
		t.Fatalf("day/night ratio %v, want >1.5", ratio)
	}
}

func TestPhillyTraceErrors(t *testing.T) {
	if _, err := PhillyTrace(PhillyConfig{Count: 0}); err == nil {
		t.Fatal("zero count accepted")
	}
}

func TestPhillyTraceDeterminism(t *testing.T) {
	a, _ := PhillyTrace(PhillyConfig{Count: 100, Seed: 10})
	b, _ := PhillyTrace(PhillyConfig{Count: 100, Seed: 10})
	for i := range a {
		if a[i].At != b[i].At || a[i].Task.Name != b[i].Task.Name {
			t.Fatal("trace not deterministic")
		}
	}
}
