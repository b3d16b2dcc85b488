package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"mudi/internal/core"
	"mudi/internal/faults"
	"mudi/internal/gpu"
	"mudi/internal/memmgr"
	"mudi/internal/model"
	"mudi/internal/obs"
	"mudi/internal/perf"
	"mudi/internal/sched"
	"mudi/internal/shard"
	"mudi/internal/span"
	"mudi/internal/stats"
	"mudi/internal/timeline"
	"mudi/internal/trace"
	"mudi/internal/tuner"
	"mudi/internal/xrand"
)

// Options configures one simulation run.
type Options struct {
	Policy  core.Policy
	Oracle  *perf.Oracle
	Seed    uint64
	Devices int // total GPUs; services deploy round-robin

	Services []model.InferenceService // defaults to the Tab. 1 catalog
	Arrivals []trace.TaskArrival

	LoadFactor float64 // QPS multiplier (Fig. 15); default 1
	// MaxHorizonSec caps the simulation even if tasks remain; default
	// 10× the last arrival (safety against starvation bugs).
	MaxHorizonSec float64

	QueuePolicy sched.Policy // default FCFS (§6)

	// Shards is the event engine's lane count: devices are partitioned
	// into that many contiguous lanes (clamped to the device count),
	// which step their devices' windows in parallel at each window end.
	// Zero or negative picks the default, min(GOMAXPROCS, devices/64).
	// Every lane count produces a byte-identical Result.Summary().
	Shards int
	// AdmitFactor scales the admission-control cap for shed-eligible
	// classes: offered load above AdmitFactor × BaseQPS × LoadFactor is
	// dropped at the door. Defaults to span.BurstFactor (the burst
	// attribution threshold, historically the hard-coded coupling);
	// must be finite and positive.
	AdmitFactor float64

	// Bursts overlays QPS burst episodes on every service (Fig. 16).
	Bursts []trace.Burst
	// MIGSlices > 1 splits every physical GPU into that many MIG
	// instances, each a fully independent device with 1/N of the
	// memory (§3: "Mudi is fully compatible with MIG, treating each
	// MIG instance as a distinct, smaller GPU"). Valid values 1–7.
	MIGSlices int
	// Obs, when non-nil, receives the run's metrics; the simulation-end
	// snapshot lands in Result.Metrics. It requires Log: control-action
	// counters are counted from the records Log receives, so New
	// rejects Obs without Log. Observation is passive — it never
	// perturbs the simulated metrics (Result.Summary() is identical
	// with and without a sink).
	Obs *obs.Sink
	// Faults, when non-nil and enabled, injects deterministic failures
	// (device outages, transient measurement errors, shadow spin-up
	// failures, degraded PCIe) seeded from Seed. Nil or a disabled
	// config leaves the simulation bit-for-bit identical to a build
	// without the injector.
	Faults *faults.Config
	// Log, when non-nil, records one span.Record per control action
	// (retunes with their BO probes, rescales, migrations, memory
	// swaps, outages, failovers, SLO violations, load sheds); its event
	// and span views land in Result.Events and Result.Spans, and its
	// attributor's report in Result.SLOReport. Passive and
	// deterministic, same contract as Obs.
	Log *span.Log
	// Replay, when non-nil, drives every device's QPS from the trace's
	// recorded streams instead of synthesizing a fluctuating walk. The
	// header's Devices/MIGSlices must match this Options, and the
	// streams must follow the canonical device order (gpu0000,
	// gpu0000/mig1, ...). LoadFactor and Bursts are ignored in replay —
	// the recorded values already include them. Arrivals still come
	// from Options.Arrivals; pass Replay.Arrivals() to re-submit the
	// recorded task sequence.
	Replay *trace.Trace
	// Record, when non-nil, captures the workload this run actually
	// consumes — every QPS query and task submission — for later
	// replay. Recording is passive (wrapped traces return exactly what
	// the originals return); the assembled trace lands in
	// Result.Workload at finalize.
	Record *trace.Recorder
	// Timeline, when non-nil, receives multi-resolution time-series —
	// per-service QPS/admitted/shed/P99/violation/batch/GPU share/
	// swapped MB/paused devices, per-class roll-ups,
	// fleet utilization and pressure, and engine self-profiling — one
	// sample per control window. Passive and deterministic like Obs and
	// Trace: series appends happen in the barrier phase in global
	// device order. The end-of-run snapshot lands in Result.Timelines.
	Timeline *timeline.Store
	// Ctx, when non-nil, cancels the simulation between control
	// windows; Run then returns ctx.Err(). Nil means run to
	// completion.
	Ctx context.Context
}

// Observers builds one run's instruments, each nil when its switch is
// off (the zero-overhead path): a metrics sink exactly when the event
// view is on, a record log with an event view and/or a span view plus
// attributor, and a timeline store. The log feeds observer, which may
// be nil. The results go into Options.Obs, Log and Timeline.
func Observers(events, trace, timelines bool, observer obs.Observer) (*obs.Sink, *span.Log, *timeline.Store) {
	var sink *obs.Sink
	if events {
		sink = obs.NewSink()
	}
	var store *timeline.Store
	if timelines {
		store = timeline.New(timeline.Defaults())
	}
	return sink, span.NewRunLog(events, trace, observer), store
}

// ErrPlacement reports a placement the run cannot carry out: the
// policy's SelectDevice returned ok with a device ID that is not among
// the candidate views it was given (an unknown device, or one that is
// down, excluded for the task or vetoed by class steering). Run stops
// at that placement and returns it wrapped with the policy and the ID.
var ErrPlacement = errors.New("cluster: placement outside the candidates")

func (o Options) defaults() (Options, error) {
	if o.Policy == nil {
		return o, errors.New("cluster: nil policy")
	}
	if o.Oracle == nil {
		return o, errors.New("cluster: nil oracle")
	}
	if o.Devices <= 0 {
		return o, fmt.Errorf("cluster: %d devices", o.Devices)
	}
	if o.Obs != nil && o.Log == nil {
		return o, errors.New("cluster: a metrics sink (Obs) needs a record log (Log)")
	}
	if len(o.Services) == 0 {
		o.Services = model.Services()
	}
	if o.LoadFactor <= 0 {
		o.LoadFactor = 1
	}
	if o.QueuePolicy == nil {
		o.QueuePolicy = sched.FCFS{}
	}
	if o.MIGSlices == 0 {
		o.MIGSlices = 1
	}
	if o.MIGSlices < 1 || o.MIGSlices > 7 {
		return o, fmt.Errorf("cluster: MIG slice count %d outside 1..7", o.MIGSlices)
	}
	if o.Shards <= 0 {
		o.Shards = shard.Default(o.Devices * o.MIGSlices)
	}
	if o.AdmitFactor == 0 {
		o.AdmitFactor = span.BurstFactor
	}
	if math.IsNaN(o.AdmitFactor) || math.IsInf(o.AdmitFactor, 0) || o.AdmitFactor <= 0 {
		return o, fmt.Errorf("cluster: admit factor %v must be finite and positive", o.AdmitFactor)
	}
	for i, a := range o.Arrivals {
		if math.IsNaN(a.At) || math.IsInf(a.At, 0) || a.At < 0 {
			return o, fmt.Errorf("cluster: arrival %d at %v must be finite and >= 0", i, a.At)
		}
	}
	if o.MaxHorizonSec <= 0 {
		last := 0.0
		for _, a := range o.Arrivals {
			if a.At > last {
				last = a.At
			}
		}
		o.MaxHorizonSec = last*10 + 14400
	}
	return o, nil
}

// Result aggregates one run's metrics.
type Result struct {
	Policy string

	// Per-service SLO accounting (Fig. 8): violated windows / windows.
	SLOViolation map[string]float64
	// Mean per-service P99 over the run's measured windows; a service
	// with none has no key, as in SLOViolation.
	MeanP99 map[string]float64

	// Training efficiency (Fig. 9), seconds.
	CTs      []float64
	WaitingT []float64
	Makespan float64
	// Completed vs admitted (unfinished tasks at the horizon are not in
	// CTs; a healthy run completes everything).
	Completed int
	Admitted  int
	// Unfinished counts the arrivals not completed when the run stopped:
	// still queued, still resident, or arriving after MaxHorizonSec. A
	// queued task is in neither Admitted nor Completed, so only this
	// says a run stopped with work left. Zero in a healthy run, and
	// absent from Summary().
	Unfinished int

	// Utilization time series (Fig. 10).
	SMUtil  *stats.TimeSeries
	MemUtil *stats.TimeSeries

	// Memory manager activity (Tab. 4 / Fig. 16).
	SwapEvents    int
	SwapFraction  map[string]float64 // per service on its device(s)
	AvgTransferMs float64

	// Overheads (Fig. 18): wall-clock of placement decisions (18b) and
	// the iteration count of every successful tuning episode that ran
	// one (18a), in episode order.
	PlacementOverheadMs []float64
	BOIterations        []int
	Reconfigs           int
	PausedEpisodes      int

	// Fault-injection accounting. All zero (and absent from Summary())
	// unless Options.Faults enables the injector.
	DeviceFailures   int // injected device outages
	DeviceRecoveries int // outages that healed within the horizon
	Failovers        int // service failovers (device death or lost shadow)
	FailedSpinUps    int // shadow instances that failed to spin up
	MeasureRetries   int // transient measurement errors retried

	// ConfigureErrors counts tuning episodes whose Policy.Configure
	// failed (e.g. a zero-QPS retune the tuner rejects) or returned a
	// feasible Δ above the whole device. The device keeps its previous
	// configuration. Zero, and absent from Summary(), in a
	// run where every episode succeeds.
	ConfigureErrors int

	// SLO-class accounting. All empty/zero (and absent from Summary())
	// unless some service declares a class — a classless run is
	// byte-identical to a build without classes.
	//
	// ShedRequests counts the requests admission control dropped, per
	// class wire name; ShedWindows counts device-windows that shed;
	// ClassViolation is SLOViolation re-aggregated per class (violated
	// windows / windows over every device in the class).
	ShedRequests   map[string]float64
	ShedWindows    int
	ClassViolation map[string]float64

	// Observability roll-up: the metrics snapshot of Options.Obs, and
	// Options.Log's event view, span view and SLO report with what each
	// cap left out. Derived views, deliberately excluded from Summary()
	// — enabling observation must not perturb the determinism contract.
	Metrics           *obs.Metrics
	Events            []obs.Event
	Spans             []span.Span
	SLOReport         *span.SLOReport
	EventsDropped     int // events past the event view's cap
	SpansDropped      int // spans past the span view's cap
	ViolationsDropped int // violations past SLOReport.Violations' cap

	// Workload is the recorded trace-v2 workload, populated only when
	// Options.Record is set. A derived view like Events/Spans, excluded
	// from Summary() — recording must not perturb the determinism
	// contract.
	Workload *trace.Trace

	// Timelines is the end-of-run snapshot of every timeline series,
	// populated only when Options.Timeline is set. A derived view
	// excluded from Summary(). The non-Profile() kinds are byte-
	// identical (timeline.Fingerprint) across lane and worker counts;
	// the engine self-profiling kinds are wall-clock and inherently
	// nondeterministic.
	Timelines []timeline.Timeline
}

// MeanSLOViolation averages the per-service violation rates. Keys are
// summed in sorted order so the result is bit-identical across runs
// (map iteration order would otherwise perturb the float sum).
func (r *Result) MeanSLOViolation() float64 {
	if len(r.SLOViolation) == 0 {
		return 0
	}
	names := make([]string, 0, len(r.SLOViolation))
	for name := range r.SLOViolation {
		names = append(names, name)
	}
	sort.Strings(names)
	var sum float64
	for _, name := range names {
		sum += r.SLOViolation[name]
	}
	return sum / float64(len(r.SLOViolation))
}

// MeanCT returns the mean completion time of finished tasks.
func (r *Result) MeanCT() float64 { return stats.Mean(r.CTs) }

// MeanWaiting returns the mean queueing delay.
func (r *Result) MeanWaiting() float64 { return stats.Mean(r.WaitingT) }

// Sim is one configured simulation.
type Sim struct {
	opts Options
	// sh is the window clock: lanes of devices stepped once per window
	// plus the control-plane events (see sharded.go).
	sh      *shard.Engine
	devices []*deviceState
	// meas maps a device ID to its measurer, which also carries the
	// device: placement resolves policy-chosen IDs through it.
	meas  map[string]*deviceMeasurer
	queue *sched.Queue
	jobs  map[int]*queueJob

	// inj is the deterministic fault injector; nil when Options.Faults
	// is unset or disabled, in which case every fault path collapses to
	// a single pointer check.
	inj *faults.Injector

	// obsv caches the cluster-level instruments (nil when observation
	// is disabled); per-device instruments live on deviceState. It is
	// set only with rec, which carries its control-action counts.
	obsv *simObs

	// rec is Options.Log and attr its attributor (nil when off); every
	// emission site guards on rec with one branch.
	rec  *span.Log
	attr *span.Attributor

	// tl is the timeline recording state (nil when Options.Timeline is
	// unset); every recording site guards on it with one branch.
	tl *tlState

	// measMap is the policy-facing view of meas, built once at
	// construction (meas never changes afterward) so trySchedule does
	// not rebuild it per placement attempt.
	measMap map[string]core.Measurer
	// viewsBuf backs trySchedule's per-attempt device-view slice, and
	// restBuf the lower class tiers classSelect sets aside. Policies
	// only read the slice during SelectDevice (values they retain are
	// copied out), so the storage is reusable.
	viewsBuf []core.DeviceView
	restBuf  []core.DeviceView

	res *Result
	// err stops the run (see ErrPlacement); Run returns it.
	err error
}

// simObs is the cluster-level instrument cache.
type simObs struct {
	smUtil     *obs.Gauge
	memUtil    *obs.Gauge
	queueDepth *obs.Gauge
	windows    *obs.Counter
	// configErrors counts the tuning episodes whose Configure failed.
	configErrors *obs.Counter
	// latencies batches one window's measured latencies, appended by
	// the observation mail, for barrierTick's one Sink.ObserveAll;
	// reused across windows.
	latencies []obs.Entry
	// acts lists the cluster counters each control act bumps (see
	// count).
	acts [span.NumActs][]*obs.Counter
	// classes holds the class-labelled roll-up counters
	// (cluster_class_*_total{class="..."}), one set per SLO class the
	// catalog declares. Created only in class-aware runs; devices cache
	// their class's set on devObs so the hot path never touches the map.
	classes map[model.SLOClass]*classCounters
}

// classCounters is one SLO class's labelled Prometheus counter set.
type classCounters struct {
	windows    *obs.Counter
	violations *obs.Counter
	shed       *obs.Counter // shed requests (not shed events)
}

func newClassCounters(sink *obs.Sink, class string) *classCounters {
	return &classCounters{
		windows:    sink.Counter(obs.ClassLabeled("cluster_class_windows_total", class)),
		violations: sink.Counter(obs.ClassLabeled("cluster_class_slo_violations_total", class)),
		shed:       sink.Counter(obs.ClassLabeled("cluster_class_shed_requests_total", class)),
	}
}

// newSimObs resolves the cluster-level instruments. The fault acts'
// counters exist only when the injector is on, and the shed and class
// counters only when some service declares a class, so an unfaulted or
// classless run's snapshot is byte-identical to a build without those
// features.
func newSimObs(sink *obs.Sink, faulted bool, services []model.InferenceService) *simObs {
	o := &simObs{
		smUtil:       sink.Gauge("cluster_sm_util"),
		memUtil:      sink.Gauge("cluster_mem_util"),
		queueDepth:   sink.Gauge("cluster_queue_depth"),
		windows:      sink.Counter("cluster_windows_total"),
		configErrors: sink.Counter("cluster_configure_errors_total"),
	}
	counter := func(name string, acts ...span.Act) {
		c := sink.Counter(name)
		for _, a := range acts {
			o.acts[a] = append(o.acts[a], c)
		}
	}
	counter("cluster_placements_total", span.ActPlaced)
	counter("cluster_migrations_total", span.ActMigrated)
	counter("cluster_retunes_total", span.ActRetune)
	counter("cluster_batch_changes_total", span.ActBatch)
	counter("cluster_gpu_rescales_total", span.ActRescale)
	counter("cluster_shadow_swaps_total", span.ActRescale)
	counter("cluster_slo_violations_total", span.ActSLOViolation)
	if faulted {
		counter("cluster_failovers_total", span.ActSpinUpFailed, span.ActFailover)
		counter("cluster_device_failures_total", span.ActOutage)
		counter("cluster_device_recoveries_total", span.ActRecovered)
		counter("cluster_measure_retries_total", span.ActMeasureRetry)
	}
	for _, c := range model.SLOClasses() {
		for _, svc := range services {
			if svc.Class == c {
				if o.classes == nil {
					counter("cluster_load_sheds_total", span.ActLoadShed)
					o.classes = make(map[model.SLOClass]*classCounters)
				}
				o.classes[c] = newClassCounters(sink, c.String())
				break
			}
		}
	}
	return o
}

// count bumps the instruments control record r stands for on device
// d: the one place a control action reaches the metrics.
func (o *simObs) count(d *deviceState, r *span.Record) {
	if o == nil {
		return
	}
	for _, c := range o.acts[r.Act] {
		c.Inc()
	}
	dv := d.obsv
	switch r.Act {
	case span.ActRetuneEnd:
		if r.Cause == "error" {
			o.configErrors.Inc()
		}
	case span.ActBatch:
		dv.batch.Set(r.Value)
	case span.ActRescale:
		dv.delta.Set(r.Value)
	case span.ActSLOViolation:
		dv.violations.Inc()
		if dv.cls != nil {
			dv.cls.violations.Inc()
		}
	case span.ActLoadShed:
		if dv.cls != nil {
			dv.cls.shed.Add(r.Value * span.WindowSec)
		}
	case span.ActMemSwap:
		if r.Cause == "to-host" {
			dv.swapOutMB.Add(r.Value)
		} else {
			dv.swapInMB.Add(r.Value)
		}
	}
}

// New builds a simulation.
func New(opts Options) (*Sim, error) {
	opts, err := opts.defaults()
	if err != nil {
		return nil, err
	}
	// rng is only forked: every random draw comes from a per-device
	// stream keyed by device ID.
	rng := xrand.New(opts.Seed).ForkString("cluster")
	s := &Sim{
		opts:  opts,
		meas:  make(map[string]*deviceMeasurer),
		queue: sched.NewQueue(opts.QueuePolicy),
		jobs:  make(map[int]*queueJob),
		res: &Result{
			Policy:       opts.Policy.Name(),
			SLOViolation: make(map[string]float64),
			MeanP99:      make(map[string]float64),
			SwapFraction: make(map[string]float64),
			SMUtil:       stats.NewTimeSeries(),
			MemUtil:      stats.NewTimeSeries(),
		},
	}
	for _, svc := range opts.Services {
		if !svc.Class.Valid() {
			return nil, fmt.Errorf("cluster: service %q has invalid SLO class %d", svc.Name, uint8(svc.Class))
		}
	}
	if opts.Faults != nil {
		inj, err := faults.New(*opts.Faults, opts.Seed, opts.MaxHorizonSec)
		if err != nil {
			return nil, err
		}
		s.inj = inj // nil when the config is all-zero (disabled)
	}
	if opts.Obs != nil {
		s.obsv = newSimObs(opts.Obs, s.inj != nil, opts.Services)
		s.queue.SetObs(opts.Obs)
	}
	s.rec = opts.Log
	s.attr = opts.Log.Attributor()
	if opts.Timeline != nil {
		s.tl = newTLState(opts.Timeline, opts.Services)
	}
	// Replay: the trace's streams supply every device's QPS. The header
	// must describe this exact cluster shape, and the streams must be in
	// canonical device order — the order the Recorder writes them in.
	var replayStreams map[string]*trace.StepQPS
	if opts.Replay != nil {
		if err := opts.Replay.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: replay trace: %w", err)
		}
		h := opts.Replay.Header
		hm := h.MIGSlices
		if hm <= 0 {
			hm = 1
		}
		if h.Devices != opts.Devices || hm != opts.MIGSlices {
			return nil, fmt.Errorf("cluster: replay trace is for %d devices × %d MIG slices, run configured %d × %d",
				h.Devices, hm, opts.Devices, opts.MIGSlices)
		}
		replayStreams = opts.Replay.StreamMap()
	}
	// Deploy: one inference service per schedulable device (a whole GPU
	// or a MIG instance), round-robin over the catalog (the paper's
	// setting — every GPU serves inference and hosts training
	// opportunistically).
	schedulable := opts.Devices * opts.MIGSlices
	// Devices are partitioned into contiguous lanes that step in
	// parallel, up to GOMAXPROCS at once, whatever is observing the run:
	// device windows write only device-owned state, and observers read
	// it back at the barrier (see sharded.go).
	if s.sh, err = shard.New(schedulable, opts.Shards, runtime.GOMAXPROCS(0), span.WindowSec); err != nil {
		return nil, err
	}
	// Every device's trace shares one indexed burst schedule. The load
	// factor is its first episode, over all time, so a rate is the
	// trace's times the load factor, then times each burst in order.
	episodes := opts.Bursts
	if opts.LoadFactor != 1 {
		episodes = append([]trace.Burst{{Start: 0, End: math.Inf(1), Factor: opts.LoadFactor}}, opts.Bursts...)
	}
	var bursts *trace.BurstSchedule
	if len(episodes) > 0 {
		bursts = trace.NewBurstSchedule(episodes)
	}
	for i := 0; i < schedulable; i++ {
		info := opts.Services[i%len(opts.Services)]
		devID, memMB := gpu.FleetDevice(i, opts.MIGSlices)
		var q trace.QPSTrace
		if replayStreams != nil {
			st := opts.Replay.Header.Streams[i]
			if st.ID != devID {
				return nil, fmt.Errorf("cluster: replay stream %d is %q, want canonical device %q", i, st.ID, devID)
			}
			svc, ok := serviceByName(opts.Services, st.Service)
			if !ok {
				return nil, fmt.Errorf("cluster: replay stream %q names unknown service %q", st.ID, st.Service)
			}
			info = svc
			q = replayStreams[devID]
			// No qps rng fork in replay: ForkString never advances the
			// parent stream, so skipping it leaves rng bit-identical to
			// the recorded run's.
		} else {
			q = trace.NewFluctuatingQPS(info.BaseQPS, rng.ForkString("qps:"+devID))
			if bursts != nil {
				q = trace.NewBurstyQPS(q, bursts)
			}
		}
		if opts.Record != nil {
			q = opts.Record.Wrap(devID, info.Name, q)
		}
		ds := newDeviceState(devID, memMB, info, q)
		if s.rec != nil {
			ds.observe = func(float64) { s.observeWindow(ds) }
		}
		if opts.Obs != nil {
			ds.obsv = newDevObs(opts.Obs, devID, info.Name)
			ds.obsv.cls = s.obsv.classes[info.Class] // nil map / unclassed → nil
		}
		if s.inj != nil {
			// Host↔device transfers slow down inside injected PCIe
			// degradation windows (factor 1 outside them).
			ds.pool.SetTransferScale(s.inj.PCIeScale)
		}
		ds.winRNG = rng.ForkString("win:" + devID)
		// Catalog index of the resident service (replay may have swapped
		// info away from the round-robin default).
		for ci := range opts.Services {
			if opts.Services[ci].Name == info.Name {
				ds.svcIdx = ci
				break
			}
		}
		s.devices = append(s.devices, ds)
		s.meas[devID] = &deviceMeasurer{oracle: opts.Oracle, dev: ds, rng: rng.ForkString("meas:" + devID), sim: s}
	}
	s.measMap = make(map[string]core.Measurer, len(s.meas))
	for id, m := range s.meas {
		s.measMap[id] = m
	}
	return s, nil
}

// Run executes the simulation to completion (all admitted tasks done)
// or to the safety horizon, and returns the metrics.
func (s *Sim) Run() (*Result, error) {
	// Initial per-device configuration and memory placement.
	for _, d := range s.devices {
		if err := s.deploy(0, d, "initial"); err != nil {
			return nil, err
		}
		if s.err != nil {
			return nil, s.err
		}
	}
	// Faults and arrivals are control-plane events: they mutate the
	// queue, the task set, and device residency, so they run with every
	// lane quiescent at the barrier. Outage windows are drawn per device
	// from seed-derived streams, so the fault schedule is a pure
	// function of (Seed, Faults). Events at one time fire in the order
	// listed here: faults by device, then arrivals in submission order,
	// all after the window's mail and before its barrier tick.
	var events []shard.Event
	if s.inj != nil {
		for _, d := range s.devices {
			for _, w := range s.inj.DeviceWindows(d.v.ID, s.opts.MaxHorizonSec) {
				events = append(events,
					shard.Event{At: w.Start, Fn: func(now float64) { s.failDevice(now, d) }},
					shard.Event{At: w.End, Fn: func(now float64) { s.recoverDevice(now, d) }})
			}
		}
	}
	// A recorder captures the submission sequence as scheduled — the
	// recorded trace replays these exact arrivals.
	for _, a := range s.opts.Arrivals {
		if s.opts.Record != nil {
			s.opts.Record.Task(a)
		}
		events = append(events, shard.Event{At: a.At, Fn: func(now float64) { s.onArrival(now, a) }})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	// Engine self-profiling: wall-clock per barrier phase, mail volume,
	// lane imbalance, heap/GC. Purely observational — the profiler only
	// appends to timeline series the fingerprint excludes.
	if s.tl != nil {
		s.sh.SetProfiler(newTLProfiler(s.tl.store))
	}
	// Every window steps each device on its lane; the barrier tick then
	// runs the cluster sums, the cancellation check and the all-done
	// stop.
	s.sh.Run(s.opts.MaxHorizonSec, events,
		func(l *shard.Lane, i int, now float64) { s.deviceWindow(now, l, s.devices[i]) },
		s.barrierTick)
	if s.opts.Ctx != nil {
		if err := s.opts.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	s.finalize(s.sh.Now())
	return s.res, nil
}

// onArrival queues the task and attempts scheduling.
func (s *Sim) onArrival(now float64, a trace.TaskArrival) {
	user := a.Task.Name // one "user" per task family for fair sharing
	if a.Cohort != "" {
		// Cohort traces name the real submitter population; fair-share
		// queueing then balances across cohorts, not task families.
		user = a.Cohort
	}
	// Smaller size classes get higher priority under the priority
	// policy (a simple deadline-ish assignment; users would set this
	// in production). Cohort traces may override per population.
	prio := int(model.SizeXL - a.Task.Size)
	if a.Priority != 0 {
		prio = a.Priority
	}
	job := &sched.Job{
		ID:             a.ID,
		SubmitTime:     a.At,
		User:           user,
		Priority:       prio,
		EstDurationSec: a.Task.BaseIterMs * float64(a.Iters) / 1000,
	}
	qj := &queueJob{job: job, arrival: a}
	s.jobs[a.ID] = qj
	s.queue.Push(job)
	s.trySchedule(now)
}

// trySchedule drains the queue head-of-line while placements succeed.
func (s *Sim) trySchedule(now float64) {
	for s.err == nil && s.queue.Len() > 0 {
		job := s.queue.Peek()
		qj := s.jobs[job.ID]
		views := s.candidates(qj)
		if len(views) == 0 {
			// Everything excluded: forget the history and retry fresh
			// (failed devices stay off the table until they recover).
			qj.excluded = nil
			views = s.candidates(qj)
		}
		if len(views) == 0 {
			return // the whole cluster is down; recovery events reschedule
		}
		start := time.Now()
		devID, ok := s.classSelect(qj, views)
		s.res.PlacementOverheadMs = append(s.res.PlacementOverheadMs, float64(time.Since(start).Nanoseconds())/1e6)
		if !ok {
			return // head-of-line blocks until a completion frees capacity
		}
		s.queue.Pop()
		s.place(now, s.meas[devID].dev, qj)
	}
}

// candidates views every live device qj is not excluded from, in
// device order, in the reused viewsBuf.
func (s *Sim) candidates(qj *queueJob) []core.DeviceView {
	views := s.viewsBuf[:0]
	for _, d := range s.devices {
		if !d.down && !qj.excluded[d.v.ID] {
			views = append(views, d.v)
		}
	}
	s.viewsBuf = views // keep the grown capacity for the next attempt
	return views
}

// classSelect is the one placement path: sched.ClassScore rates every
// candidate (budget-exhausted devices are vetoed outright), then the
// configured policy picks within score tiers from the most preferred
// (least critical residents) down. The policy keeps full authority
// inside a tier — class steering only decides which devices it may
// consider first. Each tier stays in place, in device order; only the
// lower tiers move aside into restBuf. Unclassed devices all share one
// score, so a classless fleet is one tier: the policy gets exactly the
// candidates, and nothing is copied.
func (s *Sim) classSelect(qj *queueJob, views []core.DeviceView) (string, bool) {
	for {
		best, found := 0.0, false
		for i := range views {
			if sc, ok := sched.ClassScore(views[i].ServiceClass, len(views[i].ResidentTasks)); ok && (!found || sc > best) {
				best, found = sc, true
			}
		}
		if !found {
			return "", false
		}
		tier, rest := 0, s.restBuf[:0]
		for i := range views {
			switch sc, ok := sched.ClassScore(views[i].ServiceClass, len(views[i].ResidentTasks)); {
			case !ok: // vetoed
			case sc < best:
				rest = append(rest, views[i])
			default:
				if tier != i {
					views[tier] = views[i]
				}
				tier++
			}
		}
		s.restBuf = rest
		if devID, ok := s.policySelect(qj, views[:tier]); ok || s.err != nil {
			return devID, ok
		}
		views = append(views[:0], rest...)
	}
}

// policySelect asks the policy for qj's device among views. A pick
// that is not one of views stops the run with ErrPlacement and
// reports ok=false.
func (s *Sim) policySelect(qj *queueJob, views []core.DeviceView) (string, bool) {
	devID, ok := s.opts.Policy.SelectDevice(qj.arrival.Task, views, s.measMap)
	if !ok {
		return "", false
	}
	for i := range views {
		if views[i].ID == devID {
			return devID, true
		}
	}
	s.stop(fmt.Errorf("%w: policy %s chose device %q for task %d, not one of its %d candidates",
		ErrPlacement, s.opts.Policy.Name(), devID, qj.arrival.ID, len(views)))
	return "", false
}

// stop ends the run with err, which Run returns; the first error wins.
func (s *Sim) stop(err error) {
	if s.err == nil {
		s.err = err
		s.sh.Stop()
	}
}

// poolErr stops the run with a memory-pool error on d. The cluster
// allocates, resizes and frees only allocations its own bookkeeping
// says exist, so any such error is a bug to surface, not to drop.
func (s *Sim) poolErr(d *deviceState, op string, err error) {
	if err != nil {
		s.stop(fmt.Errorf("cluster: %s on %s: %w", op, d.v.ID, err))
	}
}

// serviceByName resolves a replay stream's service against the run's
// service set.
func serviceByName(services []model.InferenceService, name string) (model.InferenceService, bool) {
	for _, s := range services {
		if s.Name == name {
			return s, true
		}
	}
	return model.InferenceService{}, false
}

// place admits the task onto the device and retunes it.
func (s *Sim) place(now float64, d *deviceState, qj *queueJob) {
	t := &taskState{
		id:        qj.arrival.ID,
		task:      qj.arrival.Task,
		iters:     qj.arrival.Iters,
		itersDone: qj.progress,
		submitAt:  qj.arrival.At,
		startAt:   now,
		allocID:   fmt.Sprintf("train-%d", qj.arrival.ID),
	}
	d.training = append(d.training, t)
	d.snapshotResidents()
	s.res.Admitted++
	s.record(d, span.Record{Act: span.ActPlaced, Time: now, Task: t.task.Name, Value: float64(t.id)})
	// Memory: training allocations are swappable.
	if err := d.pool.Alloc(now, t.allocID, memmgr.PriorityTraining, t.task.MemoryMB()); err != nil {
		// Should not happen (training can be partially resident).
		t.paused = true
		d.v.Paused = true
	}
	s.flushSwaps(d)

	// Online learning first: Mudi profiles the new co-location so the
	// immediate Configure below already uses the fitted curves.
	if learner, ok := s.opts.Policy.(core.OnlineLearner); ok {
		learner.ObserveColocation(d.v, s.meas[d.v.ID])
	}
	if err := s.configure(now, d, "placement"); err != nil {
		t.paused = true
		d.v.Paused = true
	}
}

// taskSig is the resident training-task signature used to annotate
// control-plane spans: resident names joined with "+", in residency
// order. Trace-path only (it allocates).
func taskSig(d *deviceState) string {
	var sig string
	for _, t := range d.training {
		if sig != "" {
			sig += "+"
		}
		sig += t.task.Name
	}
	return sig
}

// configure runs the policy's device-level tuning and applies the
// decision; cause labels the retune event for the observability
// stream. A failed episode — a Configure error, or a feasible decision
// whose Δ exceeds the whole device — leaves the device as it was and
// is counted in Result.ConfigureErrors, so callers that carry on with
// the old configuration may drop the returned error.
func (s *Sim) configure(now float64, d *deviceState, cause string) error {
	if s.rec != nil {
		// One retune interval per tuning episode.
		s.record(d, span.Record{Act: span.ActRetune, Time: now, Task: taskSig(d), Batch: d.v.Batch, Delta: d.v.Delta, Cause: cause})
	}
	dec, err := s.opts.Policy.Configure(d.v, s.meas[d.v.ID])
	// Every probe the episode measured becomes a bo_iter record, failed
	// episodes included.
	for _, p := range dec.Probes {
		r := span.Record{Act: span.ActBOIter, Time: now, End: now, Batch: p.Batch, Delta: p.Delta, Value: p.TrainIterMs}
		if !p.Feasible {
			r.Cause = "infeasible"
		}
		s.record(d, r)
	}
	if err == nil && dec.Feasible && dec.Delta > 1 {
		// Eq. 4's share budget: the inference partition is at most the
		// whole device.
		err = fmt.Errorf("cluster: %s: decision Δ=%g exceeds the device", d.v.ID, dec.Delta)
	}
	// The episode's outcome; a failed Configure leaves the device's
	// configuration as it was.
	end := span.Record{Act: span.ActRetuneEnd, Time: now, Batch: dec.Batch, Delta: dec.Delta, Value: float64(dec.BOIterations)}
	switch {
	case err != nil:
		end.Batch, end.Delta, end.Value, end.Cause = d.v.Batch, d.v.Delta, 0, "error"
	case !dec.Feasible:
		end.Cause = "infeasible"
	}
	s.record(d, end)
	if err != nil {
		s.res.ConfigureErrors++
		return err
	}
	if dec.BOIterations > 0 {
		s.res.BOIterations = append(s.res.BOIterations, dec.BOIterations)
	}
	s.apply(now, d, dec)
	return nil
}

// setBatch installs a decided batch size. Memory cap (§2.2.2: the
// batching size range depends on the GPU memory limit): the batch is
// halved until the service's pinned footprint fits the device —
// essential for MIG instances. Batch updates are on-the-fly; only
// memory demand changes. A service not yet deployed has no memory to
// resize: deploy pins it at the batch decided here.
func (s *Sim) setBatch(now float64, d *deviceState, batch int) {
	svc := d.svc
	for batch > 16 && svc.info.MemoryMB(batch) > d.pool.CapacityMB()*0.95 {
		batch /= 2
	}
	if batch <= 0 || batch == d.v.Batch {
		return
	}
	d.v.Batch = batch
	if svc.deployed {
		s.poolErr(d, "resizing svc", d.pool.Resize(now, "svc", svc.info.MemoryMB(batch)))
	}
	s.flushSwaps(d)
	s.record(d, span.Record{Act: span.ActBatch, Time: now, Value: float64(batch)})
}

// record emits one control-plane record for device d; a no-op when
// recording is off. Call sites whose record costs something to build
// (a task signature, a formatted cause) guard on s.rec themselves.
func (s *Sim) record(d *deviceState, r span.Record) {
	if s.rec == nil {
		return
	}
	r.Device, r.Service = d.v.ID, d.svc.info.Name
	s.obsv.count(d, &r)
	s.rec.Add(r)
}

// rescale moves the inference partition to newDelta behind the
// shadow-instance protocol (§5.4). Under fault injection a shadow can
// fail to spin up once the service is past its initial deployment; the
// old instance then keeps serving at the previous partition and the
// lost reconfiguration is recorded as a failover event. Without an
// injector this is exactly the pre-fault rescale path.
func (s *Sim) rescale(now float64, d *deviceState, newDelta float64) {
	oldDelta := d.v.Delta
	act := span.ActRescale
	if s.inj != nil && d.svc.deployed && s.inj.SpinUpFails(d.v.ID) {
		act = span.ActSpinUpFailed
		s.res.FailedSpinUps++
	} else {
		s.res.Reconfigs++
	}
	if s.rec != nil {
		// The shadow-instance protocol window (§5.4): a restart hides
		// spin-up behind the old instance, then cuts over at its end; a
		// batch-only episode reconfigures on the fly and the window
		// collapses to zero. A failed spin-up covers the attempted
		// window and never cuts over.
		spinUp, _ := tuner.ShadowReconfig(oldDelta, newDelta)
		r := span.Record{Act: act, Time: now, End: now + spinUp, Task: taskSig(d), Batch: d.v.Batch, Delta: newDelta - oldDelta, Value: newDelta}
		if act == span.ActSpinUpFailed {
			r.Cause = "shadow-spinup-failed"
		}
		s.record(d, r)
	}
	if act == span.ActRescale {
		// FreeShare is the share not claimed by the inference service —
		// the room training can (re)divide — because adding a task to a
		// Mudi-more device redistributes the training shares rather than
		// consuming new ones.
		d.v.Delta, d.v.FreeShare = newDelta, max(1-newDelta, 0)
	}
}

// apply installs a decision on the device.
func (s *Sim) apply(now float64, d *deviceState, dec core.Decision) {
	// Even an infeasible decision carries the least-bad batch for
	// serving.
	s.setBatch(now, d, dec.Batch)
	if !dec.Feasible {
		// Pause training; the service takes the device (§5.3.2).
		for _, t := range d.training {
			if !t.paused {
				t.paused = true
				t.pausedAt = now
			}
		}
		d.v.Paused = len(d.training) > 0
		if d.v.Delta != 1 {
			s.rescale(now, d, 1)
		}
		s.res.PausedEpisodes++
		return
	}
	// Cluster invariant (§7.4): while training is multiplexed, the
	// inference service leaves it at least 10% of the device; a policy
	// that wants the full device must declare infeasibility instead.
	if maxDelta := tuner.MaxDelta(true); dec.Delta > maxDelta && len(d.training) > 0 {
		dec.Delta = maxDelta
	}
	if dec.Delta > 0 && absf(dec.Delta-d.v.Delta) > 1e-9 {
		s.rescale(now, d, dec.Delta)
	}
	for _, t := range d.training {
		t.paused = false
	}
	d.v.Paused = false
}

// complete finishes a task that already left d.training in its last
// window: record metrics, free its memory, reschedule.
func (s *Sim) complete(now float64, d *deviceState, t *taskState) {
	s.res.Completed++
	s.res.CTs = append(s.res.CTs, t.finishAt-t.submitAt)
	s.res.WaitingT = append(s.res.WaitingT, t.startAt-t.submitAt)
	if t.finishAt > s.res.Makespan {
		s.res.Makespan = t.finishAt
	}
	// Usage accrues to the job's fair-share user: the cohort on cohort
	// traces, the task family otherwise (see onArrival).
	s.queue.RecordUsage(s.jobs[t.id].job.User, t.finishAt-t.startAt)
	s.poolErr(d, "freeing "+t.allocID, d.pool.Free(now, t.allocID))
	s.flushSwaps(d)
	// Retune for the remaining residents and pull the next queued task
	// ("a new co-location decision is made for pending training tasks
	// only after an existing training task has been completed", §5.2).
	_ = s.configure(now, d, "completion")
	s.trySchedule(now)
}

// qpsChangeFrac is the Monitor's trigger: a device retunes when its
// QPS moves by this fraction since the last retune (§5.3.2).
// resumeRetrySec is how often a paused device re-attempts tuning;
// pauseEvictSec is how long a task may stay paused before it is
// checkpointed and requeued for placement elsewhere.
const (
	qpsChangeFrac  = 0.5
	resumeRetrySec = 10.0
	pauseEvictSec  = 120.0
	// memPressureFrac is the memory-utilization fraction above which a
	// device counts into the fleet_mem_pressure timeline series.
	memPressureFrac = 0.9
)

// requeue evicts a paused task back to the scheduling queue with its
// progress checkpointed.
func (s *Sim) requeue(now float64, d *deviceState, t *taskState) {
	if !s.evictTask(now, d, t, "pause-evict", false) {
		return
	}
	_ = s.configure(now, d, "migration")
	s.trySchedule(now)
}

// evictTask checkpoints t off d and pushes its job back to the
// scheduling queue. force bypasses the requeue cap and skips the
// device-exclusion mark — used on device failure, where the task
// cannot stay on dead hardware and should be free to return once the
// device recovers. Returns false when the cap stops a non-forced
// eviction.
func (s *Sim) evictTask(now float64, d *deviceState, t *taskState, cause string, force bool) bool {
	qj, ok := s.jobs[t.id]
	if !ok || (!force && qj.requeues >= 2*len(s.devices)) {
		return false
	}
	qj.requeues++
	if !force {
		if qj.excluded == nil {
			qj.excluded = make(map[string]bool)
		}
		qj.excluded[d.v.ID] = true
	}
	qj.progress = t.itersDone
	s.poolErr(d, "freeing "+t.allocID, d.pool.Free(now, t.allocID))
	s.flushSwaps(d)
	d.training = slices.DeleteFunc(d.training, func(o *taskState) bool { return o == t })
	d.snapshotResidents()
	d.v.Paused = slices.ContainsFunc(d.training, func(o *taskState) bool { return o.paused })
	// Re-placement creates a fresh taskState from the checkpoint.
	s.res.Admitted--
	// The migrate interval lasts until place lands the job on its next
	// device: the task's off-device time.
	s.record(d, span.Record{Act: span.ActMigrated, Time: now, Task: t.task.Name, Value: float64(t.id), Cause: cause})
	s.queue.Push(qj.job)
	return true
}

// failDevice begins an injected outage: every resident is
// checkpointed and requeued (the forced eviction bypasses the requeue
// cap — a task cannot wait out a cap on dead hardware), the inference
// instance fails over off the device, and the device stops taking
// placements and serving windows until recovery.
func (s *Sim) failDevice(now float64, d *deviceState) {
	if d.down {
		return
	}
	d.down = true
	d.svc.deployed = false
	s.res.DeviceFailures++
	if s.rec != nil {
		// The outage interval lasts until recovery (or the horizon if
		// the device never heals); the attributor classifies violations
		// in and just after it as device_fault.
		s.record(d, span.Record{Act: span.ActOutage, Time: now, Task: taskSig(d), Cause: "device-failed"})
	}
	// Iterate a copy: evictTask rebuilds d.training in place.
	for _, t := range append([]*taskState(nil), d.training...) {
		s.evictTask(now, d, t, "device-failed", true)
	}
	s.res.Failovers++
	s.record(d, span.Record{Act: span.ActFailover, Time: now, Cause: "device-failed"})
	s.poolErr(d, "freeing svc", d.pool.Free(now, "svc"))
	s.flushSwaps(d)
	// The requeued tasks look for a home among the surviving devices.
	s.trySchedule(now)
}

// recoverDevice ends an outage: the device redeploys its inference
// instance from scratch (a fresh launch, not a shadow swap — see
// serviceState.deployed) and rejoins the placement pool.
func (s *Sim) recoverDevice(now float64, d *deviceState) {
	if !d.down {
		return
	}
	d.down = false
	s.res.DeviceRecoveries++
	s.record(d, span.Record{Act: span.ActRecovered, Time: now})
	// A failed configure is counted in ConfigureErrors; the service
	// then redeploys at its old configuration.
	_ = s.deploy(now, d, "recovery")
	// Evicted (and head-of-line blocked) tasks may now fit again.
	s.trySchedule(now)
}

// deploy launches d's inference instance at now: it sizes the
// configuration at the current QPS, then pins the instance's memory at
// the decided batch — also when the configure fails, so the service
// serves at its old configuration — and marks it deployed. It returns
// the configure error; a failed pin stops the run.
func (s *Sim) deploy(now float64, d *deviceState, cause string) error {
	svc := d.svc
	d.v.QPS = svc.qpsTrace.At(now)
	cerr := s.configure(now, d, cause)
	s.poolErr(d, "pinning svc", d.pool.Alloc(now, "svc", memmgr.PriorityInference, svc.info.MemoryMB(d.v.Batch)))
	s.flushSwaps(d)
	svc.deployed = true
	return cerr
}

// measureFault consults the injector before a TrainIterMs observation.
// A transiently failing measurement is retried with capped exponential
// backoff (the backoff spends negligible wall-clock inside a control
// window, so the simulated clock does not advance); exhausting the
// retries surfaces faults.ErrMeasurement, on which the tuner falls
// back to predictor-only curves for the episode.
func (s *Sim) measureFault(d *deviceState) error {
	if !s.inj.MeasureFails(d.v.ID) {
		return nil
	}
	now := s.sh.Now()
	retries := s.inj.Retries()
	for attempt := 1; attempt <= retries; attempt++ {
		s.res.MeasureRetries++
		if s.rec != nil {
			s.record(d, span.Record{
				Act: span.ActMeasureRetry, Time: now, Value: float64(attempt),
				Cause: fmt.Sprintf("backoff=%gms", s.inj.BackoffMs(attempt)),
			})
		}
		if !s.inj.MeasureFails(d.v.ID) {
			return nil
		}
	}
	return fmt.Errorf("cluster: measuring on %s after %d retries: %w", d.v.ID, retries, faults.ErrMeasurement)
}

// finalize converts accumulators into rates.
func (s *Sim) finalize(now float64) {
	s.res.Unfinished = len(s.opts.Arrivals) - s.res.Completed
	wins := make(map[string]float64) // measured windows per service
	// Class roll-up accumulators: violated and total windows per class
	// wire name, over every device in the class.
	classViol, classWin := make(map[string]float64), make(map[string]float64)
	for _, d := range s.devices {
		svc := d.svc
		name := svc.info.Name
		if svc.shedWins > 0 {
			if s.res.ShedRequests == nil {
				s.res.ShedRequests = make(map[string]float64)
			}
			s.res.ShedRequests[svc.info.Class.String()] += svc.shedReq
			s.res.ShedWindows += svc.shedWins
		}
		if svc.totalWin > 0 {
			// Lanes accumulate per device; merge here in global device
			// order so every float sum has a fixed order regardless of
			// lane count. A service with no measured window gets no
			// mean P99, as it gets no violation rate.
			s.res.MeanP99[name] += svc.latSum
			// Aggregate violation rate over all devices hosting the
			// same service: accumulate weighted by windows.
			prevRate := s.res.SLOViolation[name]
			prevWin := wins[name]
			totalWin := prevWin + float64(svc.totalWin)
			s.res.SLOViolation[name] = (prevRate*prevWin + float64(svc.violWin)) / totalWin
			wins[name] = totalWin
			if svc.info.Class != model.ClassUnset {
				cls := svc.info.Class.String()
				classViol[cls] += float64(svc.violWin)
				classWin[cls] += float64(svc.totalWin)
			}
		}
		frac := d.pool.SwapFraction(now)
		if frac > s.res.SwapFraction[name] {
			s.res.SwapFraction[name] = frac
		}
		s.res.SwapEvents += len(d.pool.Events())
		for _, e := range d.pool.Events() {
			s.res.AvgTransferMs += e.TransferMs
		}
	}
	if s.res.SwapEvents > 0 {
		s.res.AvgTransferMs /= float64(s.res.SwapEvents)
	}
	for cls, wins := range classWin {
		if wins > 0 {
			if s.res.ClassViolation == nil {
				s.res.ClassViolation = make(map[string]float64)
			}
			s.res.ClassViolation[cls] = classViol[cls] / wins
		}
	}
	// Observability roll-up (Summary() excludes it by design).
	// Intervals still in flight at the horizon (unhealed outages,
	// unplaced migrations) end there.
	s.res.Metrics = s.opts.Obs.Snapshot()
	s.res.Events, s.res.Spans = s.rec.Events(), s.rec.Spans(now)
	ev, sp := s.rec.Views()
	s.res.EventsDropped, s.res.SpansDropped = ev.Dropped, sp.Dropped
	s.res.SLOReport, s.res.ViolationsDropped = s.attr.Report(span.WindowSec), s.attr.Dropped()
	// Recording roll-up: the workload this run consumed, assembled into
	// a replayable trace-v2 document (a derived view like Events/Spans).
	if s.opts.Record != nil {
		s.res.Workload = s.opts.Record.Trace()
	}
	// Timeline roll-up: the full snapshot including self-profiling
	// series (consumers that need the deterministic subset filter with
	// timeline.Fingerprint / Kind.Profile).
	if s.tl != nil {
		s.res.Timelines = s.tl.store.Snapshot(true)
	}
	// MeanP99 accumulated sums; divide by window counts.
	for name, n := range wins {
		s.res.MeanP99[name] /= n
	}
}

func relChange(old, new float64) float64 {
	if old <= 0 {
		if new > 0 {
			return 1
		}
		return 0
	}
	return absf(new-old) / old
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
