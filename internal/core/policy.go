// Package core contains the paper's primary contribution: the Mudi
// multiplexing system — the Online Multiplexer (Interference Predictor
// + Device Selector, §5.2) and the device-level control loop it drives
// (§5.3) — together with the Policy interface that the cluster
// simulator uses to run Mudi and the baseline systems side by side.
package core

import (
	"mudi/internal/model"
	"mudi/internal/sched"
	"mudi/internal/tuner"
)

// DeviceView is a policy's read-only snapshot of one device. It is
// the scheduling framework's view, so Mudi's score plugins read the
// same struct a policy is handed.
type DeviceView = sched.DeviceView

// Eligible reports whether a device can take one more training task: a
// resident service, headroom in the per-GPU task cap, and no active
// training preemption. Every policy's placement applies this rule.
func Eligible(v *DeviceView, maxTrain int) bool {
	return v.ServiceName != "" && len(v.ResidentTasks) < maxTrain && !v.Paused
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
	// the candidate views (already filtered for basic eligibility).
	// ok=false queues the task.
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
