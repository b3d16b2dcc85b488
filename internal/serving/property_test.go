package serving

import (
	"sort"
	"testing"
	"testing/quick"

	"mudi/internal/xrand"
)

// TestServingInvariantsProperty drives random arrival streams through
// both batching modes and checks:
//   - every request is served exactly once (no loss, no duplication);
//   - every latency is at least the batch processing time (no
//     time-travel);
//   - batches never exceed the cap;
//   - the busy fraction is a valid fraction.
func TestServingInvariantsProperty(t *testing.T) {
	f := func(seed uint64, formRaw bool) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(300)
		arrivals := make([]float64, n)
		ts := 0.0
		for i := range arrivals {
			ts += rng.Exp(rng.Range(5, 100))
			arrivals[i] = ts
		}
		sort.Float64s(arrivals)
		cap := 1 << rng.Intn(7) // 1..64
		procBase := rng.Range(1, 40)
		lat := func(b int) float64 { return procBase + 0.5*float64(b) }

		maxBatch := 0
		latCheck := func(b int) float64 {
			if b > maxBatch {
				maxBatch = b
			}
			return lat(b)
		}
		res, err := Run(arrivals, latCheck, Config{
			BatchCap:    cap,
			SLOms:       500,
			FormBatches: formRaw,
			MaxWaitMs:   rng.Range(10, 500),
		})
		if err != nil {
			return false
		}
		if res.Served != n {
			return false
		}
		if maxBatch > cap {
			return false
		}
		// Minimum possible latency is the smallest batch's processing.
		minProc := lat(1)
		for _, l := range res.Latencies {
			if l < minProc-1e-6 {
				return false
			}
		}
		if res.BusyFraction < 0 || res.BusyFraction > 1+1e-9 {
			return false
		}
		if res.ViolationRate < 0 || res.ViolationRate > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestFIFOOrderingProperty: within the serving discipline, completion
// order follows arrival order (batches are FIFO), so latencies grouped
// per batch are non-increasing within the batch (earlier arrivals wait
// longer) and batch completion times are monotone.
func TestFIFOOrderingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(100)
		arrivals := make([]float64, n)
		ts := 0.0
		for i := range arrivals {
			ts += rng.Exp(50)
			arrivals[i] = ts
		}
		res, err := Run(arrivals, func(b int) float64 { return 20 }, Config{BatchCap: 4})
		if err != nil {
			return false
		}
		// completion time of request i = arrival[i] + latency[i]; the
		// sequence must be non-decreasing (FIFO service).
		prev := 0.0
		for i, l := range res.Latencies {
			done := arrivals[i]*1000 + l
			if done < prev-1e-6 {
				return false
			}
			prev = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
