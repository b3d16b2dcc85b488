package opt

import (
	"math"
	"testing"
	"testing/quick"

	"mudi/internal/piecewise"
)

func latencyFn() piecewise.Func {
	return piecewise.Func{K1: -200, K2: -10, Cutoff: 0.4, L0: 50}
}

func TestMinPartitionBasic(t *testing.T) {
	// Budget = SLO·b/W = 150·64/200 = 48 ms. The shallow segment gives
	// 50 − 10·(Δ−0.4) = 48 → Δ = 0.6.
	res, err := MinPartition(ScaleRequest{
		QPS: 200, Batch: 64, SLO: 150, Latency: latencyFn(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("expected feasible")
	}
	if math.Abs(res.Budget-48) > 1e-9 {
		t.Fatalf("budget = %v, want 48", res.Budget)
	}
	if math.Abs(res.Delta-0.6) > 1e-6 {
		t.Fatalf("delta = %v, want 0.6", res.Delta)
	}
}

func TestMinPartitionHeadroom(t *testing.T) {
	res, err := MinPartition(ScaleRequest{
		QPS: 200, Batch: 64, SLO: 150, Latency: latencyFn(), Headroom: 0.10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Delta-0.66) > 1e-6 {
		t.Fatalf("delta with headroom = %v, want 0.66", res.Delta)
	}
}

func TestMinPartitionInfeasible(t *testing.T) {
	// Best achievable latency is Eval(1) = 44; demand a budget of 30.
	res, err := MinPartition(ScaleRequest{
		QPS: 1000, Batch: 200, SLO: 150, Latency: latencyFn(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatalf("expected infeasible (budget %v)", res.Budget)
	}
}

func TestMinPartitionMaxDelta(t *testing.T) {
	// Feasible at Δ=0.6 but the cap is 0.5 → infeasible.
	res, err := MinPartition(ScaleRequest{
		QPS: 200, Batch: 64, SLO: 150, Latency: latencyFn(), MaxDelta: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("expected infeasible under MaxDelta=0.5")
	}
}

func TestMinPartitionHeadroomClampsToMax(t *testing.T) {
	res, err := MinPartition(ScaleRequest{
		QPS: 200, Batch: 64, SLO: 150, Latency: latencyFn(),
		MaxDelta: 0.62, Headroom: 0.10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.Delta != 0.62 {
		t.Fatalf("delta = %v feasible=%v, want clamped 0.62", res.Delta, res.Feasible)
	}
}

func TestMinPartitionRejectsBadInput(t *testing.T) {
	bad := []ScaleRequest{
		{QPS: 0, Batch: 1, SLO: 1, Latency: latencyFn()},
		{QPS: 1, Batch: 0, SLO: 1, Latency: latencyFn()},
		{QPS: 1, Batch: 1, SLO: 0, Latency: latencyFn()},
		{QPS: 1, Batch: 1, SLO: 1, Latency: piecewise.Func{}},
	}
	for i, req := range bad {
		if _, err := MinPartition(req); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestMinPartitionSolutionMeetsSLOProperty(t *testing.T) {
	f := func(qpsR, batchR, sloR uint16) bool {
		qps := 50 + float64(qpsR%2000)
		batch := 16 + int(batchR%256)
		slo := 50 + float64(sloR%500)
		fn := latencyFn()
		res, err := MinPartition(ScaleRequest{QPS: qps, Batch: batch, SLO: slo, Latency: fn})
		if err != nil {
			return false
		}
		if !res.Feasible {
			// Infeasibility must be genuine: even full GPU misses budget.
			return fn.Eval(1) > res.Budget
		}
		// The chosen Δ must satisfy the constraint.
		return fn.Eval(res.Delta) <= res.Budget*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
