// Package sched is the training queue in front of Mudi's Online
// Multiplexer (§6): a FCFS submission queue with pluggable ordering
// policies (Mudi "seamlessly integrates with various scheduling
// policies, such as shortest job first, fair sharing, and
// priority-based scheduling", §3), plus the SLO-class rule that steers
// a task away from devices hosting critical inference.
package sched

import (
	"fmt"

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
