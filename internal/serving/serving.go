// Package serving is the request-level model behind `-exp fidelity`:
// one inference service instance at request granularity. Requests
// queue, the backend assembles batches up to the configured cap, and
// each request's latency is its wait plus the batch processing time.
// The fidelity experiment compares its P99 against the window-level
// cluster simulator's per-window latency.
package serving

import (
	"errors"
	"fmt"

	"mudi/internal/stats"
)

// LatencyFn returns the processing time (ms) of one batch of the given
// size under the current device configuration — typically a closure
// over the perf oracle with the service's GPU% and co-location.
type LatencyFn func(batchSize int) float64

// Config parameterizes a simulation run.
type Config struct {
	BatchCap int     // maximum requests per batch (the tuned b_i)
	SLOms    float64 // per-request latency SLO
	// FormBatches switches from greedy batching (serve whatever is
	// queued as soon as the device frees) to batch forming: wait until
	// BatchCap requests accumulate or the oldest has waited MaxWaitMs,
	// whichever comes first — the semantics of a tuned batch size b_i.
	FormBatches bool
	MaxWaitMs   float64 // batch-forming timeout; default SLOms/2
}

// Result summarizes one run.
type Result struct {
	Served        int
	Latencies     []float64 // per request in arrival order, ms
	P99           float64
	Mean          float64
	ViolationRate float64 // fraction of requests over SLO
	BusyFraction  float64 // device-busy share of the simulated span
	Batches       int
	MeanBatch     float64
}

// Run simulates serving the given arrival times (seconds, sorted
// ascending) and returns per-request metrics. The device serves one
// batch at a time: greedy mode takes min(queued, BatchCap) as soon as
// the device frees; FormBatches mode waits for the batch to fill or
// the oldest request to reach MaxWaitMs.
func Run(arrivals []float64, lat LatencyFn, cfg Config) (Result, error) {
	if cfg.BatchCap <= 0 {
		return Result{}, fmt.Errorf("serving: batch cap %d", cfg.BatchCap)
	}
	if lat == nil {
		return Result{}, errors.New("serving: nil latency function")
	}
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] < arrivals[i-1] {
			return Result{}, fmt.Errorf("serving: arrivals not sorted at %d", i)
		}
	}
	var res Result
	if len(arrivals) == 0 {
		return res, nil
	}
	maxWait := cfg.MaxWaitMs
	if maxWait <= 0 {
		maxWait = cfg.SLOms / 2
	}

	freeAt := arrivals[0] // device idle until first arrival
	var busy float64
	n := len(arrivals)
	res.Latencies = make([]float64, 0, n)
	// Batches are served FIFO and nothing is dropped, so the queue is
	// always the arrival range [head, i): arrived but not yet served.
	head, i := 0, 0
	for head < n {
		// Admit everything that arrived by the time the device is free.
		for i < n && arrivals[i] <= freeAt {
			i++
		}
		if head == i {
			// Idle until the next arrival.
			freeAt = arrivals[i]
			continue
		}
		if cfg.FormBatches && i-head < cfg.BatchCap && maxWait > 0 {
			// Hold the launch until the batch fills or the oldest
			// request has waited maxWait.
			deadline := arrivals[head] + maxWait/1000
			for i-head < cfg.BatchCap && i < n && arrivals[i] <= deadline {
				i++
			}
			if i-head < cfg.BatchCap {
				// Timed out before filling: launch at the deadline.
				if deadline > freeAt {
					freeAt = deadline
				}
			} else if last := arrivals[i-1]; last > freeAt {
				// Filled exactly when the last member arrived.
				freeAt = last
			}
		}
		take := min(i-head, cfg.BatchCap)
		procMs := lat(take)
		if procMs < 0 {
			return Result{}, fmt.Errorf("serving: negative latency %v for batch %d", procMs, take)
		}
		end := freeAt + procMs/1000
		for _, at := range arrivals[head : head+take] {
			res.Latencies = append(res.Latencies, (end-at)*1000)
		}
		res.Batches++
		res.MeanBatch += float64(take)
		busy += procMs / 1000
		head += take
		freeAt = end
	}

	res.Served = len(res.Latencies)
	res.MeanBatch /= float64(res.Batches)
	var sc stats.Scratch
	res.P99 = sc.P99(res.Latencies)
	res.Mean = stats.Mean(res.Latencies)
	if cfg.SLOms > 0 {
		viol := 0
		for _, l := range res.Latencies {
			if l > cfg.SLOms {
				viol++
			}
		}
		res.ViolationRate = float64(viol) / float64(res.Served)
	}
	if simSpan := freeAt - arrivals[0]; simSpan > 0 {
		res.BusyFraction = busy / simSpan
	}
	return res, nil
}
