package serving

import (
	"math"
	"testing"

	"mudi/internal/trace"
	"mudi/internal/xrand"
)

func constLat(ms float64) LatencyFn {
	return func(int) float64 { return ms }
}

func TestSingleRequest(t *testing.T) {
	res, err := Run([]float64{1.0}, constLat(50), Config{BatchCap: 8, SLOms: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 1 || res.Batches != 1 {
		t.Fatalf("served %d batches %d", res.Served, res.Batches)
	}
	if math.Abs(res.Latencies[0]-50) > 1e-9 {
		t.Fatalf("latency %v, want 50", res.Latencies[0])
	}
	if res.ViolationRate != 0 {
		t.Fatalf("violations %v", res.ViolationRate)
	}
}

func TestBatchingUnderBacklog(t *testing.T) {
	// 4 requests at t=0; cap 2 → two batches of 2. First batch done at
	// 100 ms, second at 200 ms.
	arr := []float64{0, 0, 0, 0}
	res, err := Run(arr, constLat(100), Config{BatchCap: 2, SLOms: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 2 || res.MeanBatch != 2 {
		t.Fatalf("batches %d mean %v", res.Batches, res.MeanBatch)
	}
	want := []float64{100, 100, 200, 200}
	for i, l := range res.Latencies {
		if math.Abs(l-want[i]) > 1e-9 {
			t.Fatalf("latency[%d] = %v, want %v", i, l, want[i])
		}
	}
}

func TestGreedyBatchFormation(t *testing.T) {
	// Request at t=0 starts alone; three arriving during its service
	// form the next batch together.
	arr := []float64{0, 0.01, 0.02, 0.03}
	res, err := Run(arr, constLat(100), Config{BatchCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 2 {
		t.Fatalf("batches %d, want 2", res.Batches)
	}
	if res.Latencies[0] != 100 {
		t.Fatalf("first latency %v", res.Latencies[0])
	}
}

func TestViolationRate(t *testing.T) {
	// Processing 100 ms, SLO 150: lone requests meet it, a backlog of
	// two batches does not.
	arr := []float64{0, 0, 0} // cap 1 → latencies 100, 200, 300
	res, err := Run(arr, constLat(100), Config{BatchCap: 1, SLOms: 150})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ViolationRate-2.0/3) > 1e-9 {
		t.Fatalf("violation rate %v, want 2/3", res.ViolationRate)
	}
}

func TestLatencyGrowsWithBatch(t *testing.T) {
	// A latency function that grows with batch size: large caps trade
	// per-request wait against batch cost.
	lat := func(n int) float64 { return 20 + 2*float64(n) }
	rng := xrand.New(1)
	arr := trace.PoissonArrivals(trace.ConstantQPS(200), 20, rng)
	small, err := Run(arr, lat, Config{BatchCap: 1, SLOms: 150})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Run(arr, lat, Config{BatchCap: 64, SLOms: 150})
	if err != nil {
		t.Fatal(err)
	}
	// With 200 req/s and ~22 ms service at cap 1, the queue explodes;
	// batching must rescue the P99.
	if large.P99 >= small.P99 {
		t.Fatalf("batching did not help: small-cap P99 %v, large-cap %v", small.P99, large.P99)
	}
	if large.ViolationRate >= small.ViolationRate {
		t.Fatalf("violation rates: cap1 %v, cap64 %v", small.ViolationRate, large.ViolationRate)
	}
}

func TestBusyFraction(t *testing.T) {
	// One request every 2 s, 1000 ms processing → ~50% busy.
	arr := []float64{0, 2, 4, 6, 8}
	res, err := Run(arr, constLat(1000), Config{BatchCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.BusyFraction-5.0/9) > 0.01 {
		t.Fatalf("busy fraction %v", res.BusyFraction)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(nil, constLat(1), Config{BatchCap: 0}); err == nil {
		t.Fatal("zero cap accepted")
	}
	if _, err := Run(nil, nil, Config{BatchCap: 1}); err == nil {
		t.Fatal("nil latency fn accepted")
	}
	if _, err := Run([]float64{2, 1}, constLat(1), Config{BatchCap: 1}); err == nil {
		t.Fatal("unsorted arrivals accepted")
	}
	if _, err := Run([]float64{0}, constLat(-1), Config{BatchCap: 1}); err == nil {
		t.Fatal("negative latency accepted")
	}
}

func TestEmptyArrivals(t *testing.T) {
	res, err := Run(nil, constLat(1), Config{BatchCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 0 || res.P99 != 0 {
		t.Fatalf("empty run = %+v", res)
	}
}

func TestThroughputSaturation(t *testing.T) {
	// Offered load beyond capacity: busy fraction pegs at ~1 and P99
	// grows with the horizon (queue divergence).
	lat := func(n int) float64 { return 10 + 1.0*float64(n) } // cap 16 → ~26ms/16 req = 615 req/s max
	rng := xrand.New(3)
	arr := trace.PoissonArrivals(trace.ConstantQPS(1200), 10, rng)
	res, err := Run(arr, lat, Config{BatchCap: 16, SLOms: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.BusyFraction < 0.95 {
		t.Fatalf("busy fraction %v under overload", res.BusyFraction)
	}
	if res.ViolationRate < 0.5 {
		t.Fatalf("violation rate %v under overload", res.ViolationRate)
	}
}

func TestFormBatchesFillsBatch(t *testing.T) {
	// 10 req/s arrivals, cap 4, generous wait: batches should fill to 4.
	var arr []float64
	for i := 0; i < 40; i++ {
		arr = append(arr, float64(i)*0.1)
	}
	res, err := Run(arr, constLat(5), Config{
		BatchCap: 4, SLOms: 5000, FormBatches: true, MaxWaitMs: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanBatch < 3.5 {
		t.Fatalf("mean batch %v, want ≈4 under batch forming", res.MeanBatch)
	}
}

func TestFormBatchesTimeout(t *testing.T) {
	// One lonely request: it must launch after MaxWaitMs, not hang.
	res, err := Run([]float64{1.0}, constLat(10), Config{
		BatchCap: 8, SLOms: 5000, FormBatches: true, MaxWaitMs: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 1 {
		t.Fatalf("served %d", res.Served)
	}
	// Latency = 200 ms wait + 10 ms processing.
	if math.Abs(res.Latencies[0]-210) > 1e-6 {
		t.Fatalf("latency %v, want 210", res.Latencies[0])
	}
}

func TestFormBatchesDefaultsWaitToHalfSLO(t *testing.T) {
	res, err := Run([]float64{0}, constLat(10), Config{
		BatchCap: 8, SLOms: 100, FormBatches: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Latencies[0]-60) > 1e-6 {
		t.Fatalf("latency %v, want 60 (50 ms default wait + 10 ms)", res.Latencies[0])
	}
}

func TestFormBatchesVsGreedyTradeoff(t *testing.T) {
	rng := xrand.New(9)
	arr := trace.PoissonArrivals(trace.ConstantQPS(100), 30, rng)
	lat := func(n int) float64 { return 10 + 0.5*float64(n) }
	greedy, err := Run(arr, lat, Config{BatchCap: 32, SLOms: 1000})
	if err != nil {
		t.Fatal(err)
	}
	formed, err := Run(arr, lat, Config{BatchCap: 32, SLOms: 1000, FormBatches: true, MaxWaitMs: 400})
	if err != nil {
		t.Fatal(err)
	}
	// Forming trades latency for larger batches (throughput).
	if formed.MeanBatch <= greedy.MeanBatch {
		t.Fatalf("formed mean batch %v not above greedy %v", formed.MeanBatch, greedy.MeanBatch)
	}
	if formed.Mean <= greedy.Mean {
		t.Fatalf("formed mean latency %v not above greedy %v (the cost of batching)", formed.Mean, greedy.Mean)
	}
	if formed.BusyFraction >= greedy.BusyFraction {
		t.Fatalf("formed busy %v not below greedy %v", formed.BusyFraction, greedy.BusyFraction)
	}
}
