// Package cluster is the co-simulation engine: it replays a training
// arrival trace against a simulated GPU fleet hosting the Tab. 1
// inference services, drives the configured multiplexing policy (Mudi
// or a baseline) through placement, tuning, QPS monitoring, and memory
// management, and extracts the metrics behind the paper's end-to-end
// figures (Figs. 8–10, 13–18, Tab. 4).
//
// The simulation advances in control windows (1 s by default), exactly
// like the paper's own 1000-GPU simulator: fitted/true performance
// functions generate feedback at runtime (§7.1, "Simulated cluster").
package cluster

import (
	"fmt"

	"mudi/internal/core"
	"mudi/internal/memmgr"
	"mudi/internal/model"
	"mudi/internal/obs"
	"mudi/internal/perf"
	"mudi/internal/piecewise"
	"mudi/internal/sched"
	"mudi/internal/trace"
	"mudi/internal/xrand"
)

// serviceState is the per-device inference service instance.
type serviceState struct {
	info     model.InferenceService
	qpsTrace trace.QPSTrace
	violWin  int // windows with a P99 over budget
	totalWin int
	// deployed is true while a live instance is serving on the device,
	// and so while its pinned "svc" memory is allocated: setBatch
	// resizes that memory only then. It gates shadow-spin-up fault
	// injection: the initial deployment
	// and post-failure redeployments are fresh launches, not shadow
	// swaps, so only rescales of a deployed instance can lose their
	// shadow to an injected spin-up failure.
	deployed bool

	// Per-device accumulators: lane windows add to them, finalize merges
	// them in global device order so float sums are invariant to lane
	// count.
	latSum   float64 // measured window latencies, summed
	shedReq  float64 // requests shed by admission control
	shedWins int     // device-windows that shed
}

// taskState is one admitted training task.
type taskState struct {
	id        int
	task      model.TrainingTask
	iters     int
	itersDone float64
	submitAt  float64
	startAt   float64
	finishAt  float64
	paused    bool
	pausedAt  float64
	allocID   string
	// iter is the window path's memo of the task's iteration time (see
	// trueIteration); owned by the lane of the task's device.
	iter iterMemo
}

// iterMemo is a task's last oracle answer on the window path: its
// noiseless iteration time. That time is a pure function of (task,
// train share, service, batch, Δ) and a taskState's task never
// changes, so the key is the rest: a rescale, a batch change, a pause,
// resume, placement or completion beside the task (each moves the
// share) and a requeue onto another service are misses.
type iterMemo struct {
	ok    bool
	svc   string
	batch int
	share float64
	delta float64
	ms    float64
	err   error
}

// trueIteration returns o.TrueIteration(t.task, share, svc, batch,
// delta), asking the oracle only when the key moved since the previous
// call. The answer, error included, is exactly the oracle's.
func (t *taskState) trueIteration(o *perf.Oracle, share float64, svc string, batch int, delta float64) (float64, error) {
	m := &t.iter
	if m.ok && m.svc == svc && m.batch == batch && m.share == share && m.delta == delta {
		return m.ms, m.err
	}
	*m = iterMemo{ok: true, svc: svc, batch: batch, share: share, delta: delta}
	m.ms, m.err = o.TrueIteration(t.task, share, svc, batch, delta)
	return m.ms, m.err
}

// deviceState couples the device, its memory pool, the inference
// service and the training residents. The device's ID lives in v and
// its memory capacity in pool.
type deviceState struct {
	pool *memmgr.Pool
	svc  *serviceState
	// v is the policy-facing view of the device and the only home of
	// every field it carries: the service's QPS at the last (re)tune,
	// its batch and Δ, the free share, the resident snapshot, the last
	// window's SM utilization and the paused flag. Each field is written
	// where its input changes, so placement, Configure and
	// ObserveColocation read v as it stands. ResidentTasks is replaced,
	// never mutated (see snapshotResidents): policies may retain it.
	v core.DeviceView
	// training lists the unfinished residents, paused or not, in
	// placement order. A task leaves it in the window it finishes, so
	// its memory stays allocated until its completion mail frees it.
	training      []*taskState
	lastResumeTry float64
	// down marks an injected device failure window: the device takes no
	// placements, serves no inference, and contributes zero utilization
	// until the matching recovery event clears it.
	down bool
	// obsv caches this device's observability instruments (nil when
	// observation is disabled) so the hot path never takes the
	// registry lock.
	obsv *devObs
	// taskScratch backs activeScratch, whose list is consumed within one
	// oracle call.
	taskScratch []model.TrainingTask
	// retune is the barrier-side retune mail for each Monitor cause,
	// bound on first use (see postRetune).
	retune [numRetuneCauses]func(now float64)
	// observe is the window's observation mail (see observeWindow),
	// bound at construction when a record log is on; nil otherwise.
	observe func(now float64)
	// curve is the window path's memo of the oracle's latency curve
	// (see latencyCurve); lane-owned like the rest of the window state.
	curve curveMemo

	// winRNG is the per-device measurement-noise stream (a shared
	// stream would couple devices across lanes).
	winRNG *xrand.Rand

	// svcIdx is the catalog index of the resident service (the timeline
	// roll-up's per-service bucket).
	svcIdx int
	// rec is this device's last control window, written by the lane and
	// read back at the barrier (see winRecord).
	rec winRecord
	// swapSeen counts the pool's swap events already published to the
	// observers; pool.Events()[swapSeen:] is the unpublished tail.
	swapSeen int
}

// newDeviceState deploys service info on device id with memoryMB of
// memory, serving the QPS of q, at the initial configuration: batch 64
// and half the device.
func newDeviceState(id string, memoryMB float64, info model.InferenceService, q trace.QPSTrace) *deviceState {
	return &deviceState{
		pool: memmgr.NewPool(memoryMB),
		svc:  &serviceState{info: info, qpsTrace: q},
		v: core.DeviceView{
			ID:            id,
			ServiceName:   info.Name,
			ServiceClass:  info.Class,
			SLOms:         info.SLOms,
			Batch:         64,
			Delta:         0.5,
			FreeShare:     0.5,
			ResidentTasks: []model.TrainingTask{},
		},
	}
}

// winRecord is one device-window's outcome: the lane's window handler
// writes it, touching nothing shared, and the single-threaded barrier
// reads it back — the device's observation mail fans it out to events
// and metrics, the barrier tick to the attributor and the timeline.
type winRecord struct {
	at      float64 // window time
	offered float64 // offered QPS
	qps     float64 // admitted QPS (offered minus shed)
	shed    float64 // QPS dropped by admission control
	ok      bool    // the latency measurement succeeded
	lat     float64 // measured latency (ms)
	budget  float64 // latency budget (ms)
	viol    bool    // lat > budget
	batch   int     // batch size at measurement
	delta   float64 // GPU share Δ at measurement
	// swapped (training MB on the host) and paused (some co-located
	// training paused) are taken only in timeline runs.
	swapped float64
	paused  bool
	// residents names the executing co-located training tasks on a
	// violated window, captured at measurement time because a task that
	// finishes later in the window leaves d.training. Reused across
	// windows.
	residents []string
	// memFrac is the window's memory utilization, zero on a down
	// device; the barrier sums it in device order, like the SM
	// utilization the window leaves in the device's view.
	memFrac float64
}

// devObs is the per-device instrument cache, resolved once at
// simulation construction.
type devObs struct {
	latency    *obs.Histogram // measured window latency (ms)
	violations *obs.Counter
	batch      *obs.Gauge
	delta      *obs.Gauge
	// Memory swapper telemetry (§5.6); swapXfer is fleet-wide.
	swapOutMB *obs.Counter
	swapInMB  *obs.Counter
	swapXfer  *obs.Histogram
	swapped   *obs.Gauge
	// cls points at the shared class-labelled counter set for the
	// resident service's SLO class; nil for unclassed services and
	// classless runs, so every increment site is one nil check.
	cls *classCounters
}

func newDevObs(sink *obs.Sink, device, service string) *devObs {
	return &devObs{
		latency:    sink.Histogram(obs.Labeled("inf_latency_ms", device, service)),
		violations: sink.Counter(obs.Labeled("slo_violated_windows_total", device, service)),
		batch:      sink.Gauge(obs.Labeled("inf_batch", device, service)),
		delta:      sink.Gauge(obs.Labeled("inf_gpu_share", device, service)),
		swapOutMB:  sink.Counter(obs.Labeled("mem_swap_out_mb_total", device, service)),
		swapInMB:   sink.Counter(obs.Labeled("mem_swap_in_mb_total", device, service)),
		swapXfer:   sink.Histogram("mem_swap_transfer_ms"),
		swapped:    sink.Gauge(obs.Labeled("mem_swapped_out_mb", device, service)),
	}
}

// trainShare is the per-task share under the current inference delta.
func (d *deviceState) trainShare() float64 {
	n := 0
	for _, t := range d.training {
		if !t.paused {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	share := (1 - d.v.Delta) / float64(n)
	if share < 0 {
		return 0
	}
	return share
}

// snapshotResidents makes the view's ResidentTasks a fresh list of
// the catalog entries of all residents (paused or not) — the set a
// Configure decision must plan for, since a feasible decision resumes
// the paused ones. Every change to d.training calls it: placement, a
// window's finished tasks and an eviction. A snapshot is shared by
// every reader until the next one replaces it, so it is never
// modified. It is never nil, and its capacity is its length, so an
// append copies.
func (d *deviceState) snapshotResidents() {
	out := make([]model.TrainingTask, len(d.training))
	for i, t := range d.training {
		out[i] = t.task
	}
	d.v.ResidentTasks = out
}

// activeScratch lists only residents that are actually executing — a
// paused task's kernels are stopped (and its memory swapped out), so it
// imposes no interference on the service. The list lives in a reusable
// buffer: callers consume it before returning and never retain it.
func (d *deviceState) activeScratch() []model.TrainingTask {
	d.taskScratch = d.taskScratch[:0]
	for _, t := range d.training {
		if !t.paused {
			d.taskScratch = append(d.taskScratch, t.task)
		}
	}
	return d.taskScratch
}

// curveMemo is one device's last oracle answer on the window path: the
// service's noiseless latency curve under its executing residents. The
// curve is a pure function of (service, batch, executing residents'
// tasks) and a taskState's task never changes, so the key holds the
// executing *taskStates in d.training order: a placement, pause,
// resume, finish or eviction changes that list, a retune may change
// the batch, and either is a miss.
type curveMemo struct {
	ok     bool
	svc    string
	batch  int
	active []*taskState
	fn     piecewise.Func
	err    error
}

// latencyCurve returns o.TrainColocCurve for the device's service,
// batch and executing residents, asking the oracle only when that
// configuration changed since the previous call. The answer, error
// included, is exactly what the oracle returns for activeScratch().
func (d *deviceState) latencyCurve(o *perf.Oracle) (piecewise.Func, error) {
	m := &d.curve
	if m.ok && m.svc == d.svc.info.Name && m.batch == d.v.Batch && m.sameActive(d.training) {
		return m.fn, m.err
	}
	m.active = m.active[:0]
	for _, t := range d.training {
		if !t.paused {
			m.active = append(m.active, t)
		}
	}
	m.ok, m.svc, m.batch = true, d.svc.info.Name, d.v.Batch
	m.fn, m.err = o.TrainColocCurve(m.svc, m.batch, d.activeScratch())
	return m.fn, m.err
}

// sameActive reports whether training's executing tasks are m.active,
// in order.
func (m *curveMemo) sameActive(training []*taskState) bool {
	i := 0
	for _, t := range training {
		if t.paused {
			continue
		}
		if i == len(m.active) || m.active[i] != t {
			return false
		}
		i++
	}
	return i == len(m.active)
}

// deviceMeasurer adapts the oracle as the policy's live feedback for
// one device: measurements reflect the device's actual co-location.
type deviceMeasurer struct {
	oracle *perf.Oracle
	dev    *deviceState
	rng    *xrand.Rand
	// sim links back to the simulation for fault injection: transient
	// measurement errors and their retry accounting live on the Sim.
	sim *Sim
}

// TrainIterMs implements tuner.Measurer: the mean measured iteration
// across active residents, at a hypothetical (batch, delta). Under
// fault injection a measurement can transiently fail; the simulator
// retries with capped exponential backoff and surfaces
// faults.ErrMeasurement once the retries are exhausted (callers fall
// back to predictor-only curves).
func (m *deviceMeasurer) TrainIterMs(batch int, delta float64) (float64, error) {
	if m.sim != nil && m.sim.inj != nil {
		if err := m.sim.measureFault(m.dev); err != nil {
			return 0, err
		}
	}
	tasks := m.dev.v.ResidentTasks
	if len(tasks) == 0 {
		return 0, fmt.Errorf("cluster: no training on %s", m.dev.v.ID)
	}
	share := (1 - delta) / float64(len(tasks))
	if share <= 0 {
		share = 0.01
	}
	var sum float64
	for _, t := range tasks {
		v, err := m.oracle.MeasureIteration(t, share, m.dev.svc.info.Name, batch, delta, m.rng)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum / float64(len(tasks)), nil
}

// InfLatencyMs implements core.Measurer.
func (m *deviceMeasurer) InfLatencyMs(batch int, delta float64) (float64, error) {
	return m.oracle.MeasureLatency(m.dev.svc.info.Name, batch, delta, m.dev.v.ResidentTasks, m.rng)
}

var _ core.Measurer = (*deviceMeasurer)(nil)

// queueJob wraps an arrival for the scheduling queue.
type queueJob struct {
	job      *sched.Job
	arrival  trace.TaskArrival
	progress float64 // iterations completed before an eviction (checkpointing)
	requeues int
	// excluded lists devices this job was evicted from; the scheduler
	// steers the retry elsewhere.
	excluded map[string]bool
}
