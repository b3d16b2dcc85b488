// Package core contains the paper's primary contribution: the Mudi
// multiplexing system — the Online Multiplexer (Interference Predictor
// + Device Selector, §5.2) and the device-level control loop it drives
// (§5.3) — together with the Policy interface that the cluster
// simulator uses to run Mudi and the baseline systems side by side.
package core

import (
	"math"

	"mudi/internal/model"
	"mudi/internal/tuner"
)

// DeviceView is a policy's read-only snapshot of one device — what the
// paper's GPUShare-Device-Plugin exposes to the scheduler.
type DeviceView struct {
	ID          string
	ServiceName string // resident inference service ("" if none)
	// ServiceClass is the resident service's SLO class
	// (model.ClassUnset when the service is unclassed or absent).
	ServiceClass  model.SLOClass
	SLOms         float64
	QPS           float64 // current arrival rate seen by the Monitor
	Batch         int     // current batching size
	Delta         float64 // current inference GPU%
	ResidentTasks []model.TrainingTask
	FreeShare     float64
	SMUtil        float64 // recent device SM utilization [0,1]
	// Paused reports that co-located training is currently preempted
	// because the service needs the whole device (§5.3.2); no new
	// training should land here until load subsides.
	Paused bool
}

// Eligible reports whether a device can take one more training task: a
// resident service, headroom in the per-GPU task cap, and no active
// training preemption. Every policy's placement applies this rule.
func Eligible(v *DeviceView, maxTrain int) bool {
	return v.ServiceName != "" && len(v.ResidentTasks) < maxTrain && !v.Paused
}

// PickMin returns the ID of the eligible view with the smallest cost,
// ties going to the smaller ID. A view whose cost reports ok=false is
// skipped, and so is one whose cost is +Inf or NaN; ok=false when no
// view is left. This is the one device-pick rule: every cost-driven
// baseline places through it, and Mudi's Device Selector picks by it
// without scoring every view (see slopeScorer.pick).
func PickMin(views []DeviceView, maxTrain int, cost func(v *DeviceView) (float64, bool)) (string, bool) {
	bestID := ""
	best := math.Inf(1)
	for i := range views {
		v := &views[i]
		if !Eligible(v, maxTrain) {
			continue
		}
		c, ok := cost(v)
		if !ok {
			continue
		}
		if c < best || (c == best && v.ID < bestID) {
			bestID, best = v.ID, c
		}
	}
	return bestID, bestID != ""
}

// Measurer is the live feedback channel a policy gets for one device.
// In the real system these are the Training Agent's recorded mini-batch
// times and the Monitor's latency observations; in the simulator they
// sample the hidden oracle with noise.
type Measurer interface {
	tuner.Measurer
	// InfLatencyMs observes the inference P99 latency at a
	// configuration (used by feedback-driven baselines and by Mudi's
	// online profiling of new co-locations).
	InfLatencyMs(batch int, delta float64) (float64, error)
}

// Decision is a device configuration choice. Feasible=false instructs
// the cluster to pause co-located training and give the service the
// whole device until load subsides (§5.3.2).
type Decision = tuner.Decision

// Policy is a cluster-wide multiplexing policy: Mudi or a baseline.
type Policy interface {
	Name() string
	// SelectDevice picks the device for an arriving training task from
	// the candidate views: devices that are up and that the task has
	// not been excluded from (with SLO classes, one class tier of them
	// at a time). The views are not filtered for eligibility: the
	// policy applies Eligible itself. ok=false queues the task.
	SelectDevice(task model.TrainingTask, views []DeviceView, measurers map[string]Measurer) (deviceID string, ok bool)
	// Configure (re)tunes one device's inference configuration under
	// its current co-location.
	Configure(view DeviceView, m Measurer) (Decision, error)
}

// OnlineLearner is implemented by policies that learn from newly
// observed co-locations (Mudi's incremental predictor updates, §4.1.2).
type OnlineLearner interface {
	ObserveColocation(view DeviceView, m Measurer)
}
