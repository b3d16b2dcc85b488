package cluster

import (
	"fmt"

	"mudi/internal/core"
	"mudi/internal/gpu"
	"mudi/internal/model"
	"mudi/internal/opt"
	"mudi/internal/perf"
	"mudi/internal/tuner"
	"mudi/internal/xrand"
)

// MaxThroughput finds, by bisection, the highest constant QPS a policy
// can sustain for one service on one device while keeping the SLO
// violation rate under violLimit and a training task multiplexed with
// at least 10% of the GPU (the Fig. 14 protocol: "gradually increased
// the QPS rate until the SLOs were no longer met ... Mudi allocates a
// partition of at least 10% of the GPU").
func MaxThroughput(policy core.Policy, oracle *perf.Oracle, svcName, taskName string, violLimit float64, seed uint64) (float64, error) {
	svc, ok := model.ServiceByName(svcName)
	if !ok {
		return 0, fmt.Errorf("cluster: unknown service %q", svcName)
	}
	task, ok := model.TaskByName(taskName)
	if !ok {
		return 0, fmt.Errorf("cluster: unknown task %q", taskName)
	}
	if violLimit <= 0 {
		violLimit = 0.05
	}

	sustains := func(qps float64) bool {
		d := newDeviceState("tp0", gpu.A100MemoryMB, svc, nil)
		d.v.QPS = qps
		d.training = []*taskState{{task: task}}
		d.snapshotResidents()
		meas := &deviceMeasurer{oracle: oracle, dev: d, rng: xrand.New(seed).ForkString(fmt.Sprintf("tp:%s:%.0f", svcName, qps))}
		dec, err := policy.Configure(d.v, meas)
		if err != nil || !dec.Feasible {
			return false
		}
		if dec.Delta > tuner.MaxDelta(true) {
			return false // training must keep ≥10%
		}
		// Evaluate the decided configuration against the truth with
		// measurement noise over many virtual windows.
		rng := xrand.New(seed).ForkString("tpcheck:" + svcName)
		viol := 0
		const windows = 200
		budget := opt.Budget(svc.SLOms, dec.Batch, qps)
		for i := 0; i < windows; i++ {
			lat, err := oracle.MeasureLatency(svc.Name, dec.Batch, dec.Delta, []model.TrainingTask{task}, rng)
			if err != nil {
				return false
			}
			if lat > budget {
				viol++
			}
		}
		return float64(viol)/windows <= violLimit
	}

	// The decision pipeline is noisy (BO exploration, measured
	// validation), so sustains is not strictly monotone in QPS. Scan a
	// geometric-ish grid upward, tolerating isolated failures, then
	// refine between the best sustained point and the first persistent
	// failure above it.
	best := 0.0
	firstFail := -1.0
	consecutiveFails := 0
	for q := svc.BaseQPS / 4; q <= svc.BaseQPS*64; q *= 1.3 {
		if sustains(q) {
			best = q
			consecutiveFails = 0
			firstFail = -1
		} else {
			if firstFail < 0 {
				firstFail = q
			}
			consecutiveFails++
			if consecutiveFails >= 3 {
				break
			}
		}
	}
	if best == 0 {
		return 0, nil
	}
	if firstFail < 0 {
		return best, nil // never hit a persistent ceiling in range
	}
	lo, hi := best, firstFail
	for i := 0; i < 12; i++ {
		mid := (lo + hi) / 2
		if sustains(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
