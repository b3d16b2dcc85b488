// Package sched is the scheduling framework under Mudi's Online
// Multiplexer, mirroring the paper's Kubernetes integration (§6): a
// FCFS submission queue with pluggable ordering policies (Mudi
// "seamlessly integrates with various scheduling policies, such as
// shortest job first, fair sharing, and priority-based scheduling",
// §3), and a score-plugin device-selection pipeline in the style of the
// Kubernetes scheduling framework — the Interference Predictor and
// Device Selector are implemented as score plugins on top of it.
package sched

import (
	"errors"
	"fmt"

	"mudi/internal/model"
	"mudi/internal/obs"
)

// Job is one queued training task.
type Job struct {
	ID             int
	SubmitTime     float64 // seconds
	User           string
	Priority       int     // larger = more urgent (priority policy)
	EstDurationSec float64 // solo estimate (SJF policy)
}

// Policy orders the pending queue.
type Policy interface {
	Name() string
	// Pick returns the index into pending of the next job to schedule.
	// usage maps user → accumulated GPU-seconds (for fair sharing).
	Pick(pending []*Job, usage map[string]float64) int
}

// pickBest returns the index of the minimum pending job under less.
// Every policy's Pick is this scan with a policy-specific comparator;
// each comparator is a strict total order ending in the
// submission-order tie-break (SubmitTime, then unique ID), so the
// choice is independent of queue insertion order — the property that
// keeps results bit-identical at any worker count.
func pickBest(pending []*Job, less func(a, b *Job) bool) int {
	best := 0
	for i := 1; i < len(pending); i++ {
		if less(pending[i], pending[best]) {
			best = i
		}
	}
	return best
}

// submitOrderLess is the shared final tie-break: earlier submission
// wins, then the unique job ID makes the order total.
func submitOrderLess(a, b *Job) bool {
	if a.SubmitTime != b.SubmitTime {
		return a.SubmitTime < b.SubmitTime
	}
	return a.ID < b.ID
}

// FCFS schedules in submission order — the paper's default (§6).
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "fcfs" }

// Pick implements Policy.
func (FCFS) Pick(pending []*Job, _ map[string]float64) int {
	return pickBest(pending, submitOrderLess)
}

// SJF schedules the shortest estimated job first, ties by job ID.
type SJF struct{}

// Name implements Policy.
func (SJF) Name() string { return "sjf" }

// Pick implements Policy.
func (SJF) Pick(pending []*Job, _ map[string]float64) int {
	return pickBest(pending, func(a, b *Job) bool {
		if a.EstDurationSec != b.EstDurationSec {
			return a.EstDurationSec < b.EstDurationSec
		}
		return a.ID < b.ID
	})
}

// PriorityPolicy schedules the highest priority first, submission
// order (SubmitTime, then ID) within a priority level.
type PriorityPolicy struct{}

// Name implements Policy.
func (PriorityPolicy) Name() string { return "priority" }

// Pick implements Policy.
func (PriorityPolicy) Pick(pending []*Job, _ map[string]float64) int {
	return pickBest(pending, func(a, b *Job) bool {
		if a.Priority != b.Priority {
			return a.Priority > b.Priority
		}
		return submitOrderLess(a, b)
	})
}

// FairShare schedules the job whose user has the least accumulated
// usage (max-min fairness over GPU-seconds), ties in submission order.
type FairShare struct{}

// Name implements Policy.
func (FairShare) Name() string { return "fair" }

// Pick implements Policy.
func (FairShare) Pick(pending []*Job, usage map[string]float64) int {
	return pickBest(pending, func(a, b *Job) bool {
		au, bu := usage[a.User], usage[b.User]
		if au != bu {
			return au < bu
		}
		return submitOrderLess(a, b)
	})
}

// PolicyByName resolves a policy from its flag name.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "fcfs":
		return FCFS{}, nil
	case "sjf":
		return SJF{}, nil
	case "priority":
		return PriorityPolicy{}, nil
	case "fair":
		return FairShare{}, nil
	default:
		return nil, fmt.Errorf("sched: unknown policy %q", name)
	}
}

// Queue is the pending-job queue with usage accounting.
type Queue struct {
	policy  Policy
	pending []*Job
	usage   map[string]float64

	// Observability instruments (nil when disabled), cached at SetObs.
	depth  *obs.Gauge
	pushed *obs.Counter
	popped *obs.Counter
}

// NewQueue returns an empty queue under the given policy (FCFS if nil).
func NewQueue(policy Policy) *Queue {
	if policy == nil {
		policy = FCFS{}
	}
	return &Queue{policy: policy, usage: make(map[string]float64)}
}

// SetObs enables queue telemetry on the sink: a backlog-depth gauge
// plus push/pop counters, all prefixed sched_.
func (q *Queue) SetObs(sink *obs.Sink) {
	if sink == nil {
		return
	}
	q.depth = sink.Gauge("sched_queue_depth")
	q.pushed = sink.Counter("sched_jobs_pushed_total")
	q.popped = sink.Counter("sched_jobs_popped_total")
}

// Push enqueues a job: a new arrival, or an evicted job returning to
// wait for placement.
func (q *Queue) Push(j *Job) {
	q.pending = append(q.pending, j)
	if q.depth != nil {
		q.pushed.Inc()
		q.depth.Set(float64(len(q.pending)))
	}
}

// Len returns the number of pending jobs.
func (q *Queue) Len() int { return len(q.pending) }

// Peek returns the job the policy would schedule next without removing
// it, or nil when empty.
func (q *Queue) Peek() *Job {
	if len(q.pending) == 0 {
		return nil
	}
	return q.pending[q.policy.Pick(q.pending, q.usage)]
}

// Pop removes and returns the next job per policy, or nil when empty.
func (q *Queue) Pop() *Job {
	if len(q.pending) == 0 {
		return nil
	}
	i := q.policy.Pick(q.pending, q.usage)
	j := q.pending[i]
	q.pending = append(q.pending[:i], q.pending[i+1:]...)
	if q.depth != nil {
		q.popped.Inc()
		q.depth.Set(float64(len(q.pending)))
	}
	return j
}

// RecordUsage accumulates GPU-seconds against a user for fair sharing.
func (q *Queue) RecordUsage(user string, gpuSeconds float64) {
	q.usage[user] += gpuSeconds
}

// ---------------------------------------------------------------------------
// Score-plugin device selection

// DeviceView is a read-only snapshot of one device — what the paper's
// GPUShare-Device-Plugin exposes to the scheduler. Placement policies
// and score plugins read the same view.
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

// ScorePlugin scores a device for a candidate training task; higher is
// better. A negative score vetoes the device (filter semantics).
type ScorePlugin interface {
	Name() string
	Score(task *model.TrainingTask, dev *DeviceView) float64
}

// Framework runs the plugin pipeline.
type Framework struct {
	plugins []ScorePlugin
}

// NewFramework builds a pipeline over the given plugins.
func NewFramework(plugins ...ScorePlugin) *Framework {
	return &Framework{plugins: plugins}
}

// ErrNoDevice reports that every device was vetoed.
var ErrNoDevice = errors.New("sched: no eligible device")

// Score runs the full pipeline for a single device and returns the
// total score plus whether the device survived (false when any plugin
// vetoed it). Callers that need the per-device scores — e.g. tiered
// class steering in the cluster — use this instead of Select.
func (f *Framework) Score(task *model.TrainingTask, dev *DeviceView) (float64, bool) {
	total := 0.0
	for _, p := range f.plugins {
		s := p.Score(task, dev)
		if s < 0 {
			return 0, false
		}
		total += s
	}
	return total, true
}

// Select returns the ID of the device with the highest total score;
// any plugin returning a negative score vetoes that device. Ties break
// by device ID for determinism.
func (f *Framework) Select(task *model.TrainingTask, devices []DeviceView) (string, error) {
	bestIdx := -1
	bestScore := 0.0
	for i := range devices {
		total, ok := f.Score(task, &devices[i])
		if !ok {
			continue
		}
		if bestIdx < 0 || total > bestScore ||
			(total == bestScore && devices[i].ID < devices[bestIdx].ID) {
			bestIdx, bestScore = i, total
		}
	}
	if bestIdx < 0 {
		return "", ErrNoDevice
	}
	return devices[bestIdx].ID, nil
}
